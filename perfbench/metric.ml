(* The benchmark's metrics, and BENCHMARK.json rendered from them and the
   workload table, so the file and the program cannot drift apart. *)

type t = {
  name : string;
  unit_ : string;
  higher_is_better : bool;
  bound : float option;  (** end-to-end only *)
}

let e2e name unit_ bound = { name; unit_; higher_is_better = false; bound = Some bound }
let layer ?(higher_is_better = false) name unit_ = { name; unit_; higher_is_better; bound = None }

let end_to_end =
  [
    e2e "wall_s" "s" 0.25;
    e2e "setup_s" "s" 0.25;
    e2e "solve_s" "s" 0.25;
    e2e "top_heap_mb" "MB" 0.1;
    e2e "rounds" "count" 0.2;
    e2e "weight" "weight" 0.2;
  ]

let per_layer =
  [
    layer "graph.load_s" "s";
    layer "graph.params_s" "s";
    layer "graph.params_minor_words" "words";
    layer "core.algo_s" "s";
    layer "core.algo_minor_words" "words";
    layer "core.glue_s" "s";
    layer "core.certify_s" "s";
    layer "congest.sim_s" "s";
    layer "congest.ns_per_step" "ns";
    layer "congest.ns_per_msg" "ns";
    layer "congest.minor_words_per_msg" "words";
    layer "congest.rounds" "count";
    layer "congest.messages" "count";
    layer "congest.steps" "count";
    layer "embed.virtual_tree_s" "s";
    layer ~higher_is_better:true "util.pool_speedup" "x";
    layer "instr.telemetry_overhead_pct" "%";
    layer "instr.recorder_overhead_pct" "%";
    layer "instr.recorder_events" "count";
    layer "instr.log_bytes" "B";
    layer "instr.write_s" "s";
    layer "cli.residual_s" "s";
  ]

let command = [ "bash"; "perfbench/run.sh" ]
let paths = [ "perfbench" ]
let run_seconds = 50

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | ('"' | '\\') as c -> Buffer.add_char b '\\'; Buffer.add_char b c
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* A measured value with all its digits; JSON has no NaN or infinity. *)
let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "0"

let json_list items =
  "[\n" ^ String.concat ",\n" (List.map (fun s -> "    " ^ s) items) ^ "\n  ]"

let metric_json m =
  Printf.sprintf "{\"name\": %s, \"unit\": %s, \"better\": %s%s}" (json_string m.name)
    (json_string m.unit_)
    (json_string (if m.higher_is_better then "higher" else "lower"))
    (match m.bound with
    | Some b -> Printf.sprintf ", \"bound\": %g" b
    | None -> "")

let benchmark_json () =
  let strings l = "[" ^ String.concat ", " (List.map json_string l) ^ "]" in
  String.concat ""
    [
      "{\n";
      "  \"command\": "; strings command; ",\n";
      "  \"paths\": "; strings paths; ",\n";
      "  \"run_seconds\": "; string_of_int run_seconds; ",\n";
      "  \"workloads\": ";
      json_list
        (List.map
           (fun (w : Workload.t) ->
             Printf.sprintf "{\"name\": %s, \"why\": %s}" (json_string w.name)
               (json_string w.why))
           Workload.all);
      ",\n";
      "  \"end_to_end\": "; json_list (List.map metric_json end_to_end); ",\n";
      "  \"per_layer\": "; json_list (List.map metric_json per_layer); "\n";
      "}\n";
    ]

(* The result line: {"correct", "attempted", "failed", "metrics"}. *)
let result_json ~correct ~attempted ~failed values =
  let metric (m, v) =
    Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
      (json_number v) (json_string m.unit_)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric values))
