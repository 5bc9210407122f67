(* perfbench: `dsf_cli solve` end to end on one workload, or the
   layer-by-layer traced run of the same workload.

     perfbench --workload det-path --seed 1 --seconds 50 --trace 0

   --trace 0 solves the workload's instances with the CLI as a black box
   and reports the end-to-end metrics; --trace 1 times each layer in
   process and reports the per-layer metrics.  The last stdout line is the
   result as one JSON object.  Run it through perfbench/run.sh, which
   builds the CLI and this program first. *)

open Perfbench

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

(* No new solve starts after this, so a run ends well within three
   minutes even if the program gets much slower. *)
let hard_stop_s = 100.
let solve_timeout_s = 45.

(* Where run.sh builds the CLI, and where instances and run outputs go. *)
let cli = ".bench_build/default/bin/dsf_cli.exe"
let dir = ".perfbench"

let child_env () =
  let v = "v=0x400" in
  let merged =
    match Sys.getenv_opt "OCAMLRUNPARAM" with
    | Some p when p <> "" -> p ^ "," ^ v
    | _ -> v
  in
  Unix.environment ()
  |> Array.to_list
  |> List.filter (fun kv -> not (String.starts_with ~prefix:"OCAMLRUNPARAM=" kv))
  |> List.cons ("OCAMLRUNPARAM=" ^ merged)
  |> Array.of_list

type solve = {
  out : Cli_output.t;
  wall_s : float;
  setup_s : float;
  heap_mb : float;
}

(* One black-box CLI solve, with every check that makes it a failure.
   With [record], the CLI also writes a flightlog and a trace. *)
let solve_once ?(record = false) (w : Workload.t) ~env ~seed ~file =
  let out = Filename.concat dir (if record then w.name ^ "-recorded" else w.name) in
  let r =
    Spawn.run ~prog:cli ~args:(Workload.cli_args w ~file ~seed ~out ~record) ~env
      ~stderr_file:(out ^ ".stderr") ~timeout_s:solve_timeout_s
  in
  let o = Cli_output.parse r.stdout in
  let status =
    match r.status with
    | `Exited 0 -> []
    | `Exited c -> [ Printf.sprintf "exit code %d" c ]
    | `Signaled s -> [ Printf.sprintf "killed by signal %d" s ]
    | `Timed_out -> [ "timed out" ]
  in
  let header =
    match o.header with
    | Some h -> (match Workload.check_header w h with Ok () -> [] | Error e -> [ e ])
    | None -> []
  in
  let heap = Cli_output.top_heap_words r.stderr in
  let events =
    if record && o.events = None then [ "missing wrote flightlog line" ] else []
  in
  match status @ Cli_output.problems o @ header @ events, heap, r.first_line_s with
  | [], Some words, Some first ->
      Ok
        {
          out = o;
          wall_s = r.wall_s;
          setup_s = first;
          heap_mb = float_of_int (words * (Sys.word_size / 8)) /. 1e6;
        }
  | problems, heap, _ ->
      Error
        (problems @ if heap = None then [ "missing top_heap_words in the exit report" ] else [])

type tally = { mutable attempted : int; mutable failed : int }

let fail tally fmt =
  Printf.ksprintf
    (fun s ->
      tally.failed <- tally.failed + 1;
      Printf.printf "FAILED: %s\n%!" s)
    fmt

(* rounds and weight are deterministic per instance at any --jobs: a
   repeat that differs is a failure, not noise. *)
let consistent seen ~index (o : Cli_output.t) =
  let v = Option.get o.rounds, Option.get o.weight in
  match Hashtbl.find_opt seen index with
  | Some prev -> prev = v
  | None -> Hashtbl.add seen index v; true

(* Each solve runs right after one run of the reference load, and its
   timings are multiplied by [Reference.nominal_s /. ref_s]: seconds at the
   nominal speed of the machine (see reference.ml).  The unscaled medians
   are printed as well. *)
let end_to_end (w : Workload.t) ~seed ~seconds ~files tally =
  let env = child_env () in
  let t0 = Unix.gettimeofday () in
  let seen = Hashtbl.create 8 and samples = ref [] in
  let k = Array.length files in
  let rec loop i =
    let elapsed = Unix.gettimeofday () -. t0 in
    if (elapsed < seconds || i < k) && elapsed < hard_stop_s then begin
      tally.attempted <- tally.attempted + 1;
      let ref_s = Reference.time () in
      (match solve_once w ~env ~seed ~file:files.(i mod k) with
      | Error problems -> fail tally "%s" (String.concat "; " problems)
      | Ok s when not (consistent seen ~index:(i mod k) s.out) ->
          fail tally "instance %d: rounds/weight differ from an earlier solve" (i mod k)
      | Ok s -> samples := (s, ref_s) :: !samples);
      loop (i + 1)
    end
  in
  loop 0;
  if Hashtbl.length seen < k then fail tally "only %d of %d instances solved" (Hashtbl.length seen) k;
  let ss = !samples in
  let raw = [
    "wall_s", List.map (fun (s, _) -> s.wall_s) ss;
    "setup_s", List.map (fun (s, _) -> s.setup_s) ss;
    "solve_s", List.map (fun (s, _) -> s.wall_s -. s.setup_s) ss;
  ] in
  let scaled =
    List.map
      (fun (name, xs) ->
        name, List.map2 (fun x (_, ref_s) -> x *. Reference.nominal_s /. ref_s) xs ss)
      raw
  in
  let timings = scaled @ [ "top_heap_mb", List.map (fun (s, _) -> s.heap_mb) ss ] in
  let mean_exact f =
    let vs = Hashtbl.fold (fun _ v acc -> float_of_int (f v) :: acc) seen [] in
    Dsf_util.Stats.mean vs
  in
  let median = Dsf_util.Stats.median in
  let refs = List.map snd ss in
  Printf.printf "  reference load median %.4f s (nominal %.2f s), n=%d\n" (median refs)
    Reference.nominal_s (List.length refs);
  List.iter
    (fun (name, xs) ->
      let tail =
        match Summary.tail xs with
        | Some (p, v) -> Printf.sprintf "p%g=%.4f" p v
        | None -> "no percentile with 10 samples beyond it"
      in
      let unscaled =
        match List.assoc_opt name raw with
        | Some r -> Printf.sprintf "  (unscaled median %.4f)" (median r)
        | None -> ""
      in
      Printf.printf "  %-12s median %.4f  n=%d  %s%s\n" name (median xs) (List.length xs) tail
        unscaled)
    timings;
  List.map (fun (name, xs) -> name, median xs) timings
  @ [ "rounds", mean_exact fst; "weight", mean_exact snd ]

let per_layer (w : Workload.t) ~seed ~seconds ~files tally =
  let env = child_env () in
  let file = files.(0) and out = Filename.concat dir (w.name ^ "-traced") in
  let t0 = Unix.gettimeofday () in
  (* The event count of one recording CLI solve, which every recorder leg
     must repeat. *)
  let cli_events =
    if not w.record_check then None
    else begin
      tally.attempted <- tally.attempted + 1;
      match solve_once ~record:true w ~env ~seed ~file with
      | Ok r -> r.out.events
      | Error problems ->
          fail tally "recording CLI: %s" (String.concat "; " problems);
          None
    end
  in
  let passes = ref [] and events = ref None in
  let rec loop ~first =
    let elapsed = Unix.gettimeofday () -. t0 in
    if (elapsed < seconds || first) && elapsed < hard_stop_s then begin
      tally.attempted <- tally.attempted + 1;
      (match solve_once w ~env ~seed ~file with
      | Error problems -> fail tally "CLI: %s" (String.concat "; " problems)
      | Ok cli_run -> (
          match Traced.pass w ~seed ~file ~out ~cli_wall_s:cli_run.wall_s with
          | exception Failure e -> fail tally "%s" e
          | metrics, bare, s ->
              let o = cli_run.out in
              let ev = List.assoc "instr.recorder_events" metrics in
              if Some bare.weight <> o.weight || Some bare.rounds <> o.rounds then
                fail tally "traced weight/rounds %d/%d differ from the CLI's" bare.weight bare.rounds
              else if s <> (Option.get o.header).s then fail tally "traced s=%d differs from the CLI's" s
              else if Option.fold ~none:false ~some:(( <> ) ev) !events then
                fail tally "recorder events %g did not repeat" ev
              else if w.record_check && cli_events <> Some (int_of_float ev) then
                fail tally "recorder events %g differ from the recording CLI's" ev
              else begin
                events := Some ev;
                passes := metrics :: !passes
              end));
      loop ~first:false
    end
  in
  loop ~first:true;
  Printf.printf "  %d traced passes\n" (List.length !passes);
  List.map
    (fun (m : Metric.t) ->
      m.name,
      if !passes = [] then 0. else Dsf_util.Stats.median (List.map (List.assoc m.name) !passes))
    Metric.per_layer

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 50. and trace = ref 0 in
  let print_config = ref false in
  Arg.parse
    [
      "--workload", Arg.Set_string workload, "NAME one of the workloads in BENCHMARK.json";
      "--seed", Arg.Set_int seed, "N instance seed";
      "--seconds", Arg.Set_float seconds, "S how long to measure";
      "--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics";
      "--benchmark-json", Arg.Set print_config, " print BENCHMARK.json and exit";
    ]
    (fun a -> die "unexpected argument %s" a)
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  if !print_config then (print_string (Metric.benchmark_json ()); exit 0);
  let w = match Workload.find !workload with Some w -> w | None -> die "unknown workload %S" !workload in
  if not (Sys.file_exists cli) then die "%s not found; run perfbench/run.sh" cli;
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  (* The benchmark owns its inputs: the instance files are a pure function
     of the seed, and their digest goes into the fingerprint. *)
  let texts =
    Array.init w.instances (fun index ->
        Workload.instance_text (Workload.generate w ~seed:!seed ~index))
  in
  let files =
    Array.mapi
      (fun index text ->
        let f = Workload.instance_file w ~dir ~seed:!seed ~index in
        Out_channel.with_open_bin f (fun oc -> output_string oc text);
        f)
      texts
  in
  let instance_digest = Digest.to_hex (Digest.string (String.concat "" (Array.to_list texts))) in
  Printf.printf "perfbench %s seed=%d trace=%d: %s\n" w.name !seed !trace w.why;
  Printf.printf "fingerprint %s\n%!"
    (Fingerprint.to_json ~workload:w.name ~seed:!seed ~trace:!trace ~instance_digest);
  let tally = { attempted = 0; failed = 0 } in
  let run, metrics =
    if !trace = 0 then end_to_end, Metric.end_to_end else per_layer, Metric.per_layer
  in
  let values = run w ~seed:!seed ~seconds:!seconds ~files tally in
  let values = List.map (fun (m : Metric.t) -> m, List.assoc m.name values) metrics in
  List.iter
    (fun ((m : Metric.t), v) -> Printf.printf "  %-30s %14.6g %s\n" m.name v m.unit_)
    values;
  Printf.printf "  %-30s %14.6g (%d of %d failed)\n" "failed_share"
    (float_of_int tally.failed /. float_of_int (max 1 tally.attempted))
    tally.failed tally.attempted;
  print_endline
    (Metric.result_json ~correct:(tally.failed = 0) ~attempted:(max 1 tally.attempted)
       ~failed:tally.failed values)
