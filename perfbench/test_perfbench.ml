(* Tests for the benchmark's own helpers: order statistics, the metric-name
   grammar, the reference load, the CLI-output parser on captured outputs,
   instance generation and the path layout, and BENCHMARK.json against the
   tables it is rendered from. *)

open Perfbench

let floats = Alcotest.(list (float 1e-9))
let triple (a, b, c) = [ a; b; c ]
let golden name = Cli_output.parse (Spawn.read_file (Filename.concat "golden" name))
let one_to n = List.init n (fun i -> float_of_int (i + 1))

(* Reference values from Python's statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  Alcotest.check floats "1..10" [ 2.75; 5.5; 8.25 ] (triple (Summary.quartiles (one_to 10)));
  Alcotest.check floats "two samples" [ 0.; 3.; 6. ] (triple (Summary.quartiles [ 5.; 1. ]));
  Alcotest.check floats "three samples" [ 1.; 2.; 3. ] (triple (Summary.quartiles [ 3.; 1.; 2. ]));
  Alcotest.check floats "timings" [ 2.01; 2.07; 2.21 ]
    (triple (Summary.quartiles [ 2.07; 2.04; 2.31; 1.98; 2.11 ]));
  Alcotest.(check (float 1e-9)) "spread" ((8.25 -. 2.75) /. 5.5) (Summary.spread (one_to 10))

let test_percentile () =
  Alcotest.(check (float 1e-9)) "p50" 2.5 (Summary.percentile 50. [ 4.; 3.; 2.; 1. ]);
  Alcotest.(check (float 1e-9)) "p90" 9.1 (Summary.percentile 90. (one_to 10));
  Alcotest.(check (float 1e-9)) "p100" 10. (Summary.percentile 100. (one_to 10));
  Alcotest.(check (float 1e-9)) "p0" 1. (Summary.percentile 0. (one_to 10))

let test_tail () =
  let tail = Alcotest.(option (pair (float 1e-9) (float 1e-9))) in
  Alcotest.check tail "10 samples: none" None (Summary.tail (one_to 10));
  Alcotest.check tail "30 samples: the median" (Some (50., 15.5)) (Summary.tail (one_to 30));
  Alcotest.check tail "100 samples: p90" (Some (90., 90.1)) (Summary.tail (one_to 100))

let test_names () =
  List.iter
    (fun (m : Metric.t) ->
      Alcotest.(check bool) m.name true (Summary.valid_metric_name m.name))
    (Metric.end_to_end @ Metric.per_layer);
  List.iter
    (fun (w : Workload.t) -> Alcotest.(check bool) w.name true (Summary.valid_metric_name w.name))
    Workload.all;
  List.iter
    (fun bad -> Alcotest.(check bool) bad false (Summary.valid_metric_name bad))
    [ ""; "wall s"; "_x"; ".x"; "x/y"; "a\"b"; String.make 65 'a' ]

let test_parse_ok () =
  let o = golden "det_path.txt" in
  Alcotest.(check (list string)) "no problems" [] (Cli_output.problems o);
  Alcotest.(check (option int)) "weight" (Some 374) o.weight;
  Alcotest.(check (option int)) "rounds" (Some 711) o.rounds;
  (match o.header with
  | Some h -> Alcotest.(check (list int)) "header" [ 64; 63; 63; 16; 4 ] [ h.n; h.m; h.s; h.t; h.k ]
  | None -> Alcotest.fail "no header");
  List.iter
    (fun name -> Alcotest.(check (list string)) name [] (Cli_output.problems (golden name)))
    [ "rand_random.txt"; "sublinear_random.txt"; "det_path_recorded.txt" ];
  Alcotest.(check (option int)) "events" (Some 9411) (golden "det_path_recorded.txt").events;
  Alcotest.(check (option int)) "no events" None o.events

let test_parse_failures () =
  Alcotest.(check (list string))
    "certification failed"
    [ "solution infeasible"; "CERTIFICATION FAILED: infeasible: some input component is disconnected" ]
    (Cli_output.problems (golden "cert_failed.txt"));
  Alcotest.(check (list string))
    "truncated" [ "missing rounds: line" ] (Cli_output.problems (golden "truncated.txt"));
  Alcotest.(check (list string))
    "empty"
    [
      "missing instance: line"; "missing solution weight: line"; "missing certified: line";
      "missing rounds: line";
    ]
    (Cli_output.problems (Cli_output.parse ""));
  let certified_infeasible =
    Cli_output.parse
      "instance: n=4 m=3 D=3 WD=3 s=3 t=2 k=1\nsolution weight: 2 (feasible: true)\n\
       certified: feasible=false forest=true minimal=true weight=2\nrounds: 9 (simulated 9, charged 0)\n"
  in
  Alcotest.(check (list string)) "feasible=false" [ "certified feasible=false" ]
    (Cli_output.problems certified_infeasible)

let test_exit_report () =
  let report = Spawn.read_file (Filename.concat "golden" "exit_report.txt") in
  Alcotest.(check (option int)) "top_heap_words" (Some 160598) (Cli_output.top_heap_words report);
  Alcotest.(check (option int)) "absent" None (Cli_output.top_heap_words "minor_words: 3\n")

let test_instances () =
  List.iter
    (fun (w : Workload.t) ->
      let text seed index = Workload.instance_text (Workload.generate w ~seed ~index) in
      Alcotest.(check bool) (w.name ^ ": same seed, same bytes") true (text 7 0 = text 7 0);
      Alcotest.(check bool) (w.name ^ ": seeds differ") false (text 7 0 = text 8 0);
      Alcotest.(check bool) (w.name ^ ": instances differ") false (text 7 0 = text 7 1);
      let inst = Workload.generate w ~seed:7 ~index:0 in
      let g = inst.Dsf_graph.Instance.graph in
      Alcotest.(check (list int)) (w.name ^ ": n m t k")
        [ w.n; Workload.expected_m w; 16; 4 ]
        [
          Dsf_graph.Graph.n g; Dsf_graph.Graph.m g; Dsf_graph.Instance.terminal_count inst;
          Dsf_graph.Instance.component_count inst;
        ])
    Workload.all

(* Every instance of every workload has the workload's n, m, t and k; seed
   310 once gave a random-family instance with 14 terminals. *)
let test_instances_on_spec () =
  List.iter
    (fun (w : Workload.t) ->
      for seed = 301 to 320 do
        for index = 0 to w.instances - 1 do
          let inst = Workload.generate w ~seed ~index in
          Alcotest.(check (list int))
            (Printf.sprintf "%s seed %d instance %d: m t k" w.name seed index)
            [ Workload.expected_m w; 16; 4 ]
            [
              Dsf_graph.Graph.m inst.Dsf_graph.Instance.graph;
              Dsf_graph.Instance.terminal_count inst;
              Dsf_graph.Instance.component_count inst;
            ]
        done
      done)
    Workload.all

(* On the path, every gap between terminals of one component is under half
   of every gap between terminals of different components. *)
let test_path_layout () =
  let w = Option.get (Workload.find "det-path") in
  List.iter
    (fun seed ->
      let inst = Workload.generate w ~seed ~index:0 in
      let terms =
        List.filter_map
          (fun v ->
            let l = inst.Dsf_graph.Instance.labels.(v) in
            if l >= 0 then Some (v, l) else None)
          (List.init w.n Fun.id)
      in
      let rec gaps = function
        | (u, a) :: ((v, b) :: _ as rest) -> (v - u, a = b) :: gaps rest
        | _ -> []
      in
      let inside, between = List.partition snd (gaps terms) in
      let widest = List.fold_left (fun m (g, _) -> max m g) 0 inside in
      let narrowest = List.fold_left (fun m (g, _) -> min m g) max_int between in
      Alcotest.(check (list int)) "gaps inside, between" [ 12; 3 ]
        [ List.length inside; List.length between ];
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: widest inside %d < half of narrowest between %d" seed
           widest narrowest)
        true
        (2 * widest < narrowest))
    [ 1; 7; 42 ]

(* The load checks its own checksum. *)
let test_reference () = Alcotest.(check bool) "positive time" true (Reference.time () > 0.)

let test_header_check () =
  let w = Option.get (Workload.find "det-path") in
  let r = Option.get (Workload.find "rand-random") in
  let ok = function Ok () -> true | Error _ -> false in
  let h n m s : Cli_output.header = { n; m; s; t = 16; k = 4 } in
  Alcotest.(check bool) "path on spec" true (ok (Workload.check_header w (h 4096 4095 4095)));
  Alcotest.(check bool) "path s" false (ok (Workload.check_header w (h 4096 4095 4000)));
  Alcotest.(check bool) "path m" false (ok (Workload.check_header w (h 4096 4096 4095)));
  Alcotest.(check bool) "random on spec" true (ok (Workload.check_header r (h 1024 2047 17)));
  Alcotest.(check bool) "random s >= sqrt n" false (ok (Workload.check_header r (h 1024 2047 32)))

let test_benchmark_json () =
  Alcotest.(check string) "BENCHMARK.json is rendered from Metric and Workload"
    (Metric.benchmark_json ())
    (Spawn.read_file "../BENCHMARK.json")

let () =
  Alcotest.run "perfbench"
    [
      ( "summary",
        [
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "tail" `Quick test_tail;
          Alcotest.test_case "metric names" `Quick test_names;
          Alcotest.test_case "reference load" `Quick test_reference;
        ] );
      ( "cli_output",
        [
          Alcotest.test_case "captured outputs" `Quick test_parse_ok;
          Alcotest.test_case "failures" `Quick test_parse_failures;
          Alcotest.test_case "exit report" `Quick test_exit_report;
        ] );
      ( "workload",
        [
          Alcotest.test_case "instances" `Quick test_instances;
          Alcotest.test_case "instances on spec" `Quick test_instances_on_spec;
          Alcotest.test_case "path layout" `Quick test_path_layout;
          Alcotest.test_case "header check" `Quick test_header_check;
          Alcotest.test_case "BENCHMARK.json" `Quick test_benchmark_json;
        ] );
    ]
