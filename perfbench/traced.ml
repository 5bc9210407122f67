(* The in-process traced run: the calls `dsf_cli solve` makes, in its
   order (Io.parse_file, Paths.parameters, the algorithm's run,
   Certify.check), each timed from here.  The split of the algorithm call
   into engine, embed and glue comes from the span tree its [?telemetry]
   argument produces. *)

module Telemetry = Dsf_congest.Telemetry
module Recorder = Dsf_congest.Recorder

type outcome = {
  weight : int;
  rounds : int;
  solution : bool array;
  dual : float option;  (** the certificate the CLI checks, det only *)
}

let run_algo (w : Workload.t) ~seed ~jobs ?telemetry inst =
  let rounds = Dsf_congest.Ledger.total in
  match w.algo with
  | Det_flat ->
      let r = Dsf_core.Det_dsf.run ?telemetry ~flat:true ~jobs inst in
      {
        weight = r.weight;
        rounds = rounds r.ledger;
        solution = r.solution;
        dual = Some (Dsf_core.Frac.to_float r.dual);
      }
  | Rand ->
      (* The CLI's coins: Rng.create seed, split 1. *)
      let rng = Dsf_util.Rng.split (Dsf_util.Rng.create seed) 1 in
      let r = Dsf_core.Rand_dsf.run ?telemetry ~jobs ~rng inst in
      { weight = r.weight; rounds = rounds r.ledger; solution = r.solution; dual = None }

(* Wall seconds and minor words of one call, started from a compacted
   heap so that no leg inherits the garbage of the one before.  Minor words
   are those of this domain; the sequential legs below are the ones that
   count them. *)
let timed f =
  Gc.compact ();
  let w0 = Gc.minor_words () and t0 = Unix.gettimeofday () in
  let x = f () in
  let dt = Unix.gettimeofday () -. t0 in
  x, dt, Gc.minor_words () -. w0

(* Wall time of the outermost spans satisfying [p]; their descendants are
   not visited, so nothing is counted twice. *)
let rec outermost_ns p spans =
  List.fold_left
    (fun acc (s : Telemetry.span) ->
      Int64.add acc (if p s then s.wall_ns else outermost_ns p s.children))
    0L spans

let seconds_of_ns ns = Int64.to_float ns /. 1e9

let histogram_sum tel name =
  match Dsf_util.Metrics.histogram (Telemetry.metrics tel) name with
  | Some h -> Dsf_util.Histogram.sum h
  | None -> 0

(* One pass over every layer.  [cli_wall_s] is the wall time of an
   untraced CLI solve of the same file in the same pass.  Returns the
   per-layer metrics by name and the outcome every leg must agree on. *)
let pass (w : Workload.t) ~seed ~file ~out ~cli_wall_s =
  let parsed, load_s, _ = timed (fun () -> Dsf_graph.Io.parse_file file) in
  let inst =
    match parsed with
    | Dsf_graph.Io.Ic inst -> inst
    | _ -> failwith (file ^ ": not a DSF-IC instance")
  in
  let params, params_s, params_words =
    timed (fun () -> Dsf_graph.Paths.parameters inst.graph)
  in
  (* bare: the call as the CLI makes it without --trace/--record; seq: the
     same on one domain, which the span split and overheads compare with *)
  let bare, bare_s, bare_words = timed (fun () -> run_algo w ~seed ~jobs:w.jobs inst) in
  let seq_s, seq_words =
    if w.jobs = 1 then bare_s, bare_words
    else
      let _, s, words = timed (fun () -> run_algo w ~seed ~jobs:1 inst) in
      s, words
  in
  let tel = Telemetry.create () in
  let traced, tel_s, _ = timed (fun () -> run_algo w ~seed ~jobs:1 ~telemetry:tel inst) in
  let recorder = Recorder.create () in
  let rec_tel = Telemetry.create ~recorder () in
  let recorded, rec_s, _ =
    timed (fun () -> run_algo w ~seed ~jobs:1 ~telemetry:rec_tel inst)
  in
  let log = out ^ ".flightlog" in
  let (), write_s, _ =
    timed (fun () ->
        Telemetry.write_file rec_tel ~format:Jsonl (out ^ ".jsonl");
        Recorder.write_file recorder log)
  in
  let report, certify_s, _ =
    timed (fun () -> Dsf_core.Certify.check ?dual:bare.dual inst ~solution:bare.solution)
  in
  (match report with
  | Ok r when r.feasible -> ()
  | Ok _ -> failwith "traced run: certified infeasible"
  | Error e -> failwith ("traced run: certification failed: " ^ e));
  List.iter
    (fun (leg, o) ->
      if o.weight <> bare.weight || o.rounds <> bare.rounds then
        failwith ("traced run: the " ^ leg ^ " leg disagrees with the bare call"))
    [ "telemetry", traced; "recorder", recorded ];
  let spans = Telemetry.root_spans tel in
  let sim_s = seconds_of_ns (outermost_ns (fun s -> s.rounds > 0) spans) in
  let vt_s =
    seconds_of_ns (outermost_ns (fun s -> s.name = "virtual_tree") spans)
  in
  let steps = histogram_sum tel "sim/stepped_per_round" in
  let messages = histogram_sum tel "sim/delivered_per_round" in
  let per n x = if n = 0 then 0. else x /. float_of_int n in
  let overhead_pct t = 100. *. (t -. seq_s) /. seq_s in
  let _, _, s = params in
  let metrics =
    [
      "graph.load_s", load_s;
      "graph.params_s", params_s;
      "graph.params_minor_words", params_words;
      "core.algo_s", bare_s;
      "core.algo_minor_words", seq_words;
      "core.glue_s", tel_s -. sim_s -. vt_s;
      "core.certify_s", certify_s;
      "congest.sim_s", sim_s;
      "congest.ns_per_step", per steps (sim_s *. 1e9);
      "congest.ns_per_msg", per messages (sim_s *. 1e9);
      "congest.minor_words_per_msg", per messages seq_words;
      "congest.rounds",
      float_of_int (Dsf_util.Metrics.counter_value (Telemetry.metrics tel) "sim/rounds");
      "congest.messages", float_of_int messages;
      "congest.steps", float_of_int steps;
      "embed.virtual_tree_s", vt_s;
      "util.pool_speedup", seq_s /. bare_s;
      "instr.telemetry_overhead_pct", overhead_pct tel_s;
      "instr.recorder_overhead_pct", overhead_pct rec_s;
      "instr.recorder_events", float_of_int (Recorder.event_count recorder);
      "instr.log_bytes", float_of_int (Unix.stat log).st_size;
      "instr.write_s", write_s;
      "cli.residual_s", cli_wall_s -. (load_s +. params_s +. bare_s +. certify_s);
    ]
  in
  metrics, bare, s
