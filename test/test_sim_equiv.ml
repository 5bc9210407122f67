(* Differential tests for the production engine: the flat engine (skip
   idle nodes, arena delivery, incremental done-count, domain partitioning)
   must be observationally identical to Sim.run_reference (the seed loop
   that steps every node every round) — same stats, same final states,
   same observer order, same results — on randomized graphs and the
   protocols that declare sparse wake-ups, with and without faults. *)

open Dsf_graph
open Dsf_congest

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let rng seed = Dsf_util.Rng.create seed

let reference = { Sim.default_ctx with engine = Reference }

(* Run the same closure under the default (flat) and a reference context
   and hand back both results.  The closure must be deterministic (all our
   protocols are). *)
let both f = f Sim.default_ctx, f reference

let stats_eq (a : Sim.stats) (b : Sim.stats) = a = b

let random_graph seed =
  let r = rng seed in
  let n = 8 + Dsf_util.Rng.int r 20 in
  let extra = Dsf_util.Rng.int r (2 * n) in
  let max_w = 1 + Dsf_util.Rng.int r 12 in
  Gen.random_connected r ~n ~extra_edges:extra ~max_w

(* ------------------------------------------------------------- raw protos *)

(* The unit-suite flood protocol, with a sparse wake: exercises run vs
   run_reference directly (not through the context's engine). *)
type flood_state = { heard : int option; relayed : bool }

let flood_protocol root : (flood_state, unit) Sim.protocol =
  {
    init =
      (fun view ->
        if view.Sim.node = root then { heard = Some 0; relayed = false }
        else { heard = None; relayed = false });
    step =
      (fun view ~round st ~inbox ->
        let st =
          match st.heard, inbox with
          | None, _ :: _ -> { st with heard = Some round }
          | _ -> st
        in
        if st.heard <> None && not st.relayed then
          ( { st with relayed = true },
            Array.to_list view.Sim.nbrs |> List.map (fun (nb, _, _) -> nb, ()) )
        else st, []);
    is_done = (fun st -> st.heard <> None && st.relayed);
    msg_bits = (fun () -> 1);
    wake = Some Sim.never;
  }

let prop_flood_equiv =
  QCheck.Test.make ~name:"run = run_reference (flood, sparse wake)" ~count:30
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let root = seed mod Graph.n g in
      let s1, t1 = Sim.run g (flood_protocol root) in
      let s2, t2 = Sim.run_reference g (flood_protocol root) in
      s1 = s2 && stats_eq t1 t2)

(* ------------------------------------------------- library entry points *)

let prop_bellman_ford_equiv =
  QCheck.Test.make ~name:"run = run_reference (Bellman-Ford Voronoi)"
    ~count:25
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let n = Graph.n g in
      let r = rng (seed + 1) in
      let k = 1 + Dsf_util.Rng.int r 3 in
      let sources =
        List.init k (fun _ ->
            Dsf_util.Rng.int r n, Dsf_util.Rng.int r 5)
      in
      let (res1, t1), (res2, t2) =
        both (fun ctx -> Bellman_ford.run ~ctx g ~sources)
      in
      res1 = res2 && stats_eq t1 t2)

let prop_pipeline_equiv =
  QCheck.Test.make
    ~name:"run = run_reference (pipelined filtered upcast)" ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let n = Graph.n g in
      let r = rng (seed + 2) in
      let tree = fst (Bfs.build g ~root:(Dsf_util.Rng.int r n)) in
      let vn = 10 in
      let items_all =
        List.init 20 (fun i ->
            let a = Dsf_util.Rng.int r vn and b = Dsf_util.Rng.int r vn in
            if a = b then None
            else Some (Dsf_util.Rng.int r n, { Pipeline.key = i; a; b }))
        |> List.filter_map Fun.id
      in
      let items v =
        List.filter (fun (h, _) -> h = v) items_all |> List.map snd
      in
      let (acc1, t1), (acc2, t2) =
        both (fun ctx ->
            Pipeline.filtered_upcast ~ctx g ~tree ~vn ~pre:[] ~items
              ~cmp:compare ~bits:(fun _ -> 16))
      in
      acc1 = acc2 && stats_eq t1 t2)

let prop_tree_ops_equiv =
  QCheck.Test.make
    ~name:"run = run_reference (upcast / broadcast / aggregate)" ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let n = Graph.n g in
      let tree = fst (Bfs.build g ~root:(seed mod n)) in
      let bits x = Dsf_util.Bitsize.int_bits (max 1 x) in
      let (up1, ut1), (up2, ut2) =
        both (fun ctx ->
            Tree_ops.upcast ~ctx g ~tree ~items:(fun v -> [ v; v + n ]) ~bits)
      in
      let (bc1, bt1), (bc2, bt2) =
        both (fun ctx ->
            Tree_ops.broadcast ~ctx g ~tree ~items:[ 1; 2; 3 ] ~bits)
      in
      let (ag1, at1), (ag2, at2) =
        both (fun ctx ->
            Tree_ops.aggregate ~ctx g ~tree ~value:Fun.id ~combine:( + ) ~bits)
      in
      up1 = up2 && stats_eq ut1 ut2
      && bc1 = bc2 && stats_eq bt1 bt2
      && ag1 = ag2 && stats_eq at1 at2)

let prop_bfs_leader_exchange_equiv =
  QCheck.Test.make
    ~name:"run = run_reference (BFS / leader / exchange)" ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let (tr1, bt1), (tr2, bt2) =
        both (fun ctx -> Bfs.build ~ctx g ~root:(seed mod Graph.n g))
      in
      let le1, le2 = both (fun ctx -> Leader.elect ~ctx g) in
      let ex1, ex2 =
        both (fun ctx -> Exchange.all_neighbors ~ctx g ~payload_bits:9)
      in
      tr1 = tr2 && stats_eq bt1 bt2 && le1 = le2 && stats_eq ex1 ex2)

let prop_telemetry_transparent =
  QCheck.Test.make
    ~name:"?telemetry never perturbs a run (both engines)" ~count:25
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let root = seed mod Graph.n g in
      (* The hook only observes: states, stats and observer traces of an
         instrumented run must be bit-identical to the bare run — on the
         flat engine and the reference loop alike. *)
      let record run telemetry =
        let log = ref [] in
        let observer ~src ~dst ~bits = log := (src, dst, bits) :: !log in
        let ctx =
          { Sim.default_ctx with observer = Some observer; telemetry }
        in
        let s, t = run ~ctx g (flood_protocol root) in
        s, t, List.rev !log
      in
      let record_flat = record (fun ~ctx g p -> Sim.run ~ctx g p) in
      let record_reference =
        record (fun ~ctx g p -> Sim.run_reference ~ctx g p)
      in
      let tel () = Some (Telemetry.create ~clock:(fun () -> 0L) ()) in
      record_flat None = record_flat (tel ())
      && record_reference None = record_reference (tel ()))

let prop_empty_plan_identity =
  QCheck.Test.make
    ~name:"?faults with the empty plan is bit-identical" ~count:25
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let root = seed mod Graph.n g in
      (* States, stats AND observer traces must all coincide: an empty
         plan never fires, so the fault-injecting engine path has to be
         indistinguishable from the fault-free one, on both engines. *)
      let record engine faults =
        let log = ref [] in
        let observer ~src ~dst ~bits = log := (src, dst, bits) :: !log in
        let ctx =
          { Sim.default_ctx with engine; observer = Some observer; faults }
        in
        let s, t = Sim.run ~ctx g (flood_protocol root) in
        s, t, List.rev !log
      in
      let empty () = Some (Fault.instantiate Fault.empty) in
      record Flat None = record Flat (empty ())
      && record Reference None = record Reference (empty ()))

(* --------------------------------------------------------------- corners *)

let test_single_node () =
  let g = Graph.make ~n:1 [] in
  let (s1, t1), (s2, t2) =
    both (fun ctx -> Sim.run ~ctx g (flood_protocol 0))
  in
  ignore s1;
  ignore s2;
  check Alcotest.int "rounds" t2.Sim.rounds t1.Sim.rounds;
  Alcotest.(check bool) "stats equal" true (stats_eq t1 t2)

let test_round_limit_equiv () =
  (* Both engines must hit Round_limit at the same round on a protocol that
     never quiesces. *)
  let g = Gen.path 3 in
  let chatty : (unit, unit) Sim.protocol =
    {
      init = (fun _ -> ());
      step =
        (fun view ~round:_ st ~inbox:_ ->
          st, Array.to_list view.Sim.nbrs |> List.map (fun (nb, _, _) -> nb, ()));
      is_done = (fun () -> true);
      msg_bits = (fun () -> 1);
      wake = None;
    }
  in
  let limit_of run =
    match run () with
    | exception Sim.Round_limit a -> a.Sim.at_round
    | _ -> -1
  in
  let flat = limit_of (fun () -> Sim.run ~max_rounds:7 g chatty) in
  let reference =
    limit_of (fun () -> Sim.run_reference ~max_rounds:7 g chatty)
  in
  check Alcotest.int "same limit" reference flat;
  check Alcotest.int "limit is 7" 7 flat

let test_halt_equiv () =
  let g = Gen.path 4 in
  let counting : (int, unit) Sim.protocol =
    {
      init = (fun _ -> 0);
      step =
        (fun view ~round:_ c ~inbox:_ ->
          ( c + 1,
            Array.to_list view.Sim.nbrs |> List.map (fun (nb, _, _) -> nb, ()) ));
      is_done = (fun _ -> false);
      msg_bits = (fun () -> 1);
      wake = None;
    }
  in
  let halt sts = sts.(0) >= 4 in
  let (s1, t1), (s2, t2) = both (fun ctx -> Sim.run ~halt ~ctx g counting) in
  check Alcotest.(array int) "states" s2 s1;
  Alcotest.(check bool) "stats equal" true (stats_eq t1 t2)

let test_scheduler_skips_idle () =
  (* A protocol that is done from the start and never sends: with a sparse
     wake the flat engine must not step anyone (states stay at init),
     while the reference engine steps everyone once.  Stats agree anyway —
     this is exactly the contract boundary the [wake] docs describe. *)
  let g = Gen.grid ~rows:3 ~cols:3 in
  let lazybones : (int, unit) Sim.protocol =
    {
      init = (fun _ -> 0);
      step = (fun _ ~round:_ c ~inbox:_ -> c + 1, []);
      is_done = (fun _ -> true);
      msg_bits = (fun () -> 1);
      wake = Some Sim.never;
    }
  in
  let s_flat, t_flat = Sim.run g lazybones in
  let s_ref, t_ref = Sim.run_reference g lazybones in
  Array.iter (fun c -> check Alcotest.int "never stepped" 0 c) s_flat;
  Array.iter (fun c -> check Alcotest.int "stepped once" 1 c) s_ref;
  Alcotest.(check bool) "stats still equal" true (stats_eq t_flat t_ref)

let test_observer_order_identical () =
  (* The observer must see the same (src, dst, bits) sequence from both
     engines — traces and cut meters rely on it. *)
  let g = random_graph 424_242 in
  let record engine =
    let log = ref [] in
    let observer ~src ~dst ~bits = log := (src, dst, bits) :: !log in
    let ctx = { Sim.default_ctx with engine; observer = Some observer } in
    ignore (Bellman_ford.sssp ~ctx g ~src:0);
    List.rev !log
  in
  let l1 = record Flat in
  let l2 = record Reference in
  check Alcotest.int "same length" (List.length l2) (List.length l1);
  Alcotest.(check bool) "same sequence" true (l1 = l2)

(* ------------------------------------------------------------ flat engine *)

(* Capture a run as a comparable value: states, stats and the observer
   trace on success, the full abort post-mortem on Round_limit (both
   sides of a differential must stall identically too), and the
   flightlog bytes of the completed rounds. *)
let capture run g proto =
  let log = ref [] in
  let observer ~src ~dst ~bits = log := (src, dst, bits) :: !log in
  let recorder = Recorder.create ~now:0 () in
  let outcome =
    match run ~observer ~recorder g proto with
    | s, t -> Ok (s, t)
    | exception Sim.Round_limit a -> Error a
  in
  outcome, List.rev !log, Recorder.to_string recorder

let prop_flat_equiv_faults_telemetry =
  QCheck.Test.make
    ~name:"flat = reference (faults + telemetry on, incl. stalls)" ~count:30
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let n = Graph.n g in
      let root = seed mod n in
      (* Drops can strand the flood forever (it never retransmits), so a
         stall is an expected outcome here: both engines must then raise
         Round_limit with the same post-mortem.  The crash window puts
         Down/Restart events in the flightlog. *)
      let plan =
        Fault.plan ~drop:0.15 ~duplicate:0.1
          ~link_down:[ (root, (root + 1) mod n, 0, 2) ]
          ~crashes:[ ((root + 2) mod n, 1, 3) ]
          ~seed ()
      in
      let leg engine jobs =
        capture
          (fun ~observer ~recorder g p ->
            let ctx =
              {
                Sim.engine;
                jobs;
                observer = Some observer;
                faults = Some (Fault.instantiate plan);
                telemetry = Some (Telemetry.create ~clock:(fun () -> 0L) ());
                recorder = Some recorder;
                chaos = None;
              }
            in
            Sim.run ~max_rounds:300 ~ctx g p)
          g (flood_protocol root)
      in
      let base = leg Reference 1 in
      base = leg Flat 1 && base = leg Flat 4)

let prop_flat_equiv_lossless =
  QCheck.Test.make
    ~name:"flat = reference (lossless, telemetry on)" ~count:30
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let root = seed mod Graph.n g in
      let leg engine jobs =
        capture
          (fun ~observer ~recorder g p ->
            let telemetry = Telemetry.create ~clock:(fun () -> 0L) () in
            let ctx =
              {
                Sim.default_ctx with
                engine;
                jobs;
                observer = Some observer;
                telemetry = Some telemetry;
                recorder = Some recorder;
              }
            in
            Sim.run ~ctx g p)
          g (flood_protocol root)
      in
      let base = leg Reference 1 in
      base = leg Flat 1 && base = leg Flat 4)

let prop_flat_jobs_invariant =
  QCheck.Test.make
    ~name:"flat engine is jobs-invariant (1 = 2 = 4, observer incl.)"
    ~count:25
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let root = seed mod Graph.n g in
      (* Two scheduling regimes: the sparse fast path (no faults) and the
         full criterion sweep (faults present) must both be independent
         of the domain count. *)
      let flat ?faults jobs ~observer =
        { Sim.default_ctx with engine = Flat; jobs; faults;
          observer = Some observer }
      in
      let sparse jobs =
        capture
          (fun ~observer ~recorder:_ g p ->
            Sim.run ~ctx:(flat jobs ~observer) g p)
          g (flood_protocol root)
      in
      let swept jobs =
        capture
          (fun ~observer ~recorder:_ g p ->
            let faults =
              Fault.instantiate (Fault.plan ~drop:0.1 ~seed ())
            in
            Sim.run ~max_rounds:300 ~ctx:(flat ~faults jobs ~observer) g p)
          g (flood_protocol root)
      in
      let s1 = sparse 1 and w1 = swept 1 in
      s1 = sparse 2 && s1 = sparse 4 && w1 = swept 2 && w1 = swept 4)

let prop_flat_native_bfs =
  QCheck.Test.make
    ~name:"Bfs.flat_protocol = Bfs.protocol (tree, stats, jobs sweep)"
    ~count:25
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let n = Graph.n g in
      let root = seed mod n in
      let tree, t_classic = Bfs.build ~ctx:reference g ~root in
      let flat jobs =
        Sim.run_flat
          ~ctx:{ Sim.default_ctx with jobs }
          g (Bfs.flat_protocol ~n ~root)
      in
      let f1, t1 = flat 1 and f4, t4 = flat 4 in
      let same_tree = ref true in
      Array.iteri
        (fun v packed ->
          match Bfs.flat_state_parent_depth ~n packed with
          | None -> same_tree := false (* connected: everyone is reached *)
          | Some (p, d) ->
              if p <> tree.Bfs.parent.(v) || d <> tree.Bfs.depth.(v) then
                same_tree := false)
        f1;
      !same_tree && stats_eq t_classic t1 && f1 = f4 && stats_eq t1 t4)

(* ---------------------------------------------------- flat native ports *)

(* Every primitive ported natively to the flat engine must be bit-identical
   to its classic protocol on the reference loop — result, stats, observer
   trace and flightlog bytes — with telemetry on, for any domain count,
   lossless and under fault plans.  Legs per primitive: the classic
   protocol on the reference loop, and the native port on the flat engine
   at jobs 1 and 4.  Duplicate-only plans suit every primitive; drop and
   crash plans can legitimately stall an upcast forever, so they run on
   the flooding primitives (Bellman-Ford, region BF, token flood,
   exchange), whose runs end however much mail is lost.  The classic
   protocols through the flat engine's boxed adapter are covered
   generically by "flat = reference (faults + telemetry on, incl. stalls)"
   and "flat = reference (lossless, telemetry on)" above. *)
let record_leg ?faults ~engine ~jobs f =
  let log = ref [] in
  let observer ~src ~dst ~bits = log := (src, dst, bits) :: !log in
  let telemetry = Telemetry.create ~clock:(fun () -> 0L) () in
  let recorder = Recorder.create ~now:0 () in
  let r =
    match
      f
        {
          Sim.engine;
          jobs;
          observer = Some observer;
          faults;
          telemetry = Some telemetry;
          recorder = Some recorder;
          chaos = None;
        }
    with
    | r -> Ok r
    | exception Sim.Round_limit a -> Error a
  in
  r, List.rev !log, Recorder.to_string recorder

let dup_plan seed = Fault.plan ~duplicate:0.15 ~seed ()

(* Drops, duplicates and one crash window early enough to bite. *)
let lossy_plan seed n =
  Fault.plan ~drop:0.15 ~duplicate:0.1 ~crashes:[ (seed mod n, 1, 3) ] ~seed ()

(* The reference leg must equal the flat legs at jobs 1 and 4, fault-free
   and under each plan. *)
let flat_matches_reference ?(plans = []) leg =
  let check plan =
    let faults () = Option.map Fault.instantiate plan in
    let base = leg ?faults:(faults ()) ~engine:Sim.Reference ~jobs:1 () in
    List.for_all
      (fun jobs -> base = leg ?faults:(faults ()) ~engine:Sim.Flat ~jobs ())
      [ 1; 4 ]
  in
  List.for_all check (None :: List.map Option.some plans)

let prop_flat_native_bellman_ford =
  QCheck.Test.make
    ~name:"Bellman-Ford native flat = classic (faults, telemetry, jobs)"
    ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let n = Graph.n g in
      let r = rng (seed + 11) in
      let k = 1 + Dsf_util.Rng.int r 3 in
      let sources =
        List.init k (fun _ -> Dsf_util.Rng.int r n, Dsf_util.Rng.int r 5)
      in
      let radius =
        if Dsf_util.Rng.int r 2 = 0 then Some (5 + Dsf_util.Rng.int r 20)
        else None
      in
      let leg ?faults ~engine ~jobs () =
        record_leg ?faults ~engine ~jobs (fun ctx ->
            Bellman_ford.run ?radius ~ctx g ~sources)
      in
      flat_matches_reference ~plans:[ dup_plan seed; lossy_plan seed n ] leg)

let prop_flat_native_region_bf =
  QCheck.Test.make
    ~name:"Region-BF native flat = classic (faults, telemetry, jobs)"
    ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let n = Graph.n g in
      let r = rng (seed + 13) in
      let k = 1 + Dsf_util.Rng.int r 3 in
      let sources =
        List.init k (fun i ->
            let v = Dsf_util.Rng.int r n in
            let off = Dsf_core.Frac.half (Dsf_core.Frac.of_int (Dsf_util.Rng.int r 6)) in
            v, off, i)
      in
      let frozen =
        Array.init n (fun v ->
            Dsf_util.Rng.int r 6 = 0
            && not (List.exists (fun (s, _, _) -> s = v) sources))
      in
      let leg ?faults ~engine ~jobs () =
        record_leg ?faults ~engine ~jobs (fun ctx ->
            Dsf_core.Region_bf.run ~ctx g ~sources ~frozen)
      in
      flat_matches_reference ~plans:[ dup_plan seed; lossy_plan seed n ] leg)

let prop_flat_native_tree_ops =
  QCheck.Test.make
    ~name:"tree ops native flat = classic (faults, telemetry, jobs)"
    ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let n = Graph.n g in
      let tree = fst (Bfs.build g ~root:(seed mod n)) in
      let bits x = Dsf_util.Bitsize.int_bits (max 1 x) in
      let up ?faults ~engine ~jobs () =
        record_leg ?faults ~engine ~jobs (fun ctx ->
            Tree_ops.upcast ~ctx g ~tree ~items:(fun v -> [ v; v + n ]) ~bits)
      in
      let bc ?faults ~engine ~jobs () =
        record_leg ?faults ~engine ~jobs (fun ctx ->
            Tree_ops.broadcast ~ctx g ~tree ~items:[ 1; 2; 3 ] ~bits)
      in
      (* The child-count handshake of [aggregate] dedups child reports by
         sender id (each child reports exactly once, so the sender is its
         own sequence stamp): duplicate-injecting plans leave the state
         trajectory — and the root's total — untouched, so the lossy legs
         compare against each other AND against the lossless sum. *)
      let ag ?faults ~engine ~jobs () =
        record_leg ?faults ~engine ~jobs (fun ctx ->
            Tree_ops.aggregate ~ctx g ~tree ~value:Fun.id ~combine:( + ) ~bits)
      in
      let dup () = Fault.instantiate (dup_plan seed) in
      let plans = [ dup_plan seed ] in
      flat_matches_reference ~plans up
      && flat_matches_reference ~plans bc
      && flat_matches_reference ~plans ag
      && fst
           (Tree_ops.aggregate
              ~ctx:{ Sim.default_ctx with faults = Some (dup ()) }
              g ~tree ~value:Fun.id ~combine:( + ) ~bits)
         = fst
             (Tree_ops.aggregate g ~tree ~value:Fun.id ~combine:( + ) ~bits))

let prop_flat_native_pipeline =
  QCheck.Test.make
    ~name:"filtered upcast native flat = classic (faults, stop, jobs)"
    ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let n = Graph.n g in
      let r = rng (seed + 17) in
      let tree = fst (Bfs.build g ~root:(Dsf_util.Rng.int r n)) in
      let vn = 10 in
      let items_all =
        List.init 20 (fun i ->
            let a = Dsf_util.Rng.int r vn and b = Dsf_util.Rng.int r vn in
            if a = b then None
            else Some (Dsf_util.Rng.int r n, { Pipeline.key = i; a; b }))
        |> List.filter_map Fun.id
      in
      let items v =
        List.filter (fun (h, _) -> h = v) items_all |> List.map snd
      in
      let leg ?stop_at_root ?faults ~engine ~jobs () =
        record_leg ?faults ~engine ~jobs (fun ctx ->
            Pipeline.filtered_upcast ~ctx ?stop_at_root g ~tree ~vn ~pre:[]
              ~items ~cmp:compare ~bits:(fun _ -> 16))
      in
      let stop acc = List.length acc >= 3 in
      flat_matches_reference ~plans:[ dup_plan seed ] (leg ?stop_at_root:None)
      && flat_matches_reference (leg ~stop_at_root:stop))

let prop_flat_native_select_exchange =
  QCheck.Test.make
    ~name:"token flood + exchange native flat = classic (faults, jobs)"
    ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let n = Graph.n g in
      let r = rng (seed + 19) in
      let tree = fst (Bfs.build g ~root:(seed mod n)) in
      let parent = tree.Bfs.parent in
      let seeds = Array.init n (fun _ -> Dsf_util.Rng.int r 3 = 0) in
      let tf ?faults ~engine ~jobs () =
        record_leg ?faults ~engine ~jobs (fun ctx ->
            Dsf_core.Select.token_flood ~ctx g ~parent ~seeds)
      in
      let ex ?faults ~engine ~jobs () =
        record_leg ?faults ~engine ~jobs (fun ctx ->
            Exchange.all_neighbors ~ctx g ~payload_bits:9)
      in
      let plans = [ dup_plan seed; lossy_plan seed n ] in
      flat_matches_reference ~plans tf && flat_matches_reference ~plans ex)

let test_det_dsf_flat_e2e () =
  (* Full solve: every subroutine on the flat engine (native ports where
     they exist, the adapter elsewhere) must give the same result for any
     domain count; [~flat] is a no-op kept for compatibility.  The
     component differentials above tie each subroutine to the reference
     loop. *)
  let r = rng 77 in
  let g = Gen.random_connected r ~n:60 ~extra_edges:60 ~max_w:12 in
  let labels = Gen.spread_labels r g ~t:12 ~k:4 in
  let inst = Instance.make_ic g labels in
  let run ?flat ?jobs () =
    let res = Dsf_core.Det_dsf.run ?flat ?jobs inst in
    ( res.Dsf_core.Det_dsf.solution,
      res.Dsf_core.Det_dsf.weight,
      res.Dsf_core.Det_dsf.dual,
      res.Dsf_core.Det_dsf.merges,
      res.Dsf_core.Det_dsf.phase_count,
      res.Dsf_core.Det_dsf.max_edge_round_bits,
      Ledger.simulated res.Dsf_core.Det_dsf.ledger,
      Ledger.charged res.Dsf_core.Det_dsf.ledger )
  in
  let base = run () in
  Alcotest.(check bool) "jobs=4" true (base = run ~jobs:4 ());
  Alcotest.(check bool) "~flat:true is a no-op" true
    (base = run ~flat:true ~jobs:1 ())

let test_flat_adapter_inbox_order () =
  (* The adapter's inbox_list must present arrival order exactly as the
     reference loop builds inboxes: senders ascending, send order within
     a sender.  A 2-source flood on a path makes node 2 hear 1 and 3 in
     the same round. *)
  let g = Gen.path 5 in
  let two_roots : (flood_state, unit) Sim.protocol =
    let p = flood_protocol 1 in
    {
      p with
      init =
        (fun view ->
          if view.Sim.node = 1 || view.Sim.node = 3 then
            { heard = Some 0; relayed = false }
          else { heard = None; relayed = false });
    }
  in
  let (s1, t1), (s2, t2) = both (fun ctx -> Sim.run ~ctx g two_roots) in
  Alcotest.(check bool) "states" true (s1 = s2);
  Alcotest.(check bool) "stats" true (stats_eq t1 t2)

(* ---------------------------------------------------------- run context *)

let expect_invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

let test_ctx_chaos_rejected () =
  (* Hardening wraps the protocol, so only Fault.sim_run may consume a
     chaos context; every engine entry point refuses one. *)
  let g = Gen.path 4 in
  let chaos = Some (Fault.chaos (Fault.plan ~drop:0.1 ~seed:1 ())) in
  let ctx = { Sim.default_ctx with chaos } in
  expect_invalid "Sim.run" (fun () -> Sim.run ~ctx g (flood_protocol 0));
  expect_invalid "Sim.run (flat)" (fun () ->
      Sim.run ~ctx:{ ctx with engine = Flat } g (flood_protocol 0));
  expect_invalid "Sim.run_reference" (fun () ->
      Sim.run_reference ~ctx g (flood_protocol 0));
  expect_invalid "Sim.run_flat" (fun () ->
      Sim.run_flat ~ctx g (Sim.flat_of_protocol (flood_protocol 0)));
  (* ... while the primitives route it through Fault.sim_run. *)
  let tree, _ = Bfs.build ~ctx g ~root:0 in
  check Alcotest.int "hardened BFS height" 3 tree.Bfs.height

let test_reference_crash_window () =
  (* The reference loop applies the fault semantics naively: node 1 of the
     path 0-1-2 is down in round 1, exactly when the root's announcement
     reaches it, so the mail is dropped and counted, and the restarted
     node never hears again: the flood stalls.  The flat engine must
     stall at the same round with the same post-mortem. *)
  let g = Gen.path 3 in
  let plan = Fault.plan ~crashes:[ (1, 1, 2) ] ~seed:3 () in
  let abort engine =
    let r = Recorder.create ~now:0 () in
    let ctx =
      {
        Sim.default_ctx with
        engine;
        faults = Some (Fault.instantiate plan);
        recorder = Some r;
      }
    in
    match Sim.run ~max_rounds:20 ~ctx g (flood_protocol 0) with
    | _ -> Alcotest.fail "expected the flood to stall"
    | exception Sim.Round_limit a -> a, Recorder.to_string r
  in
  let a, bytes = abort Reference in
  check Alcotest.int "dropped" 1 a.Sim.snapshot.Sim.dropped;
  (match Recorder.parse bytes with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok log ->
      let events = Recorder.log_events log in
      Alcotest.(check bool) "Down and Restart recorded" true
        (List.mem (Recorder.Down 1) events
        && List.mem (Recorder.Restart 1) events));
  Alcotest.(check bool) "flat stalls identically" true (abort Flat = (a, bytes))

let test_flat_jobs_clamped () =
  (* run_flat stages mail in jobs × n buffers, so it clamps jobs to the
     pool's cap: asking for n domains must allocate exactly what asking
     for hard_cap does.  A zero round limit aborts before the first
     round, so the count is the run's setup alone and no pool domain
     takes part in it. *)
  let cap = Dsf_util.Pool.hard_cap in
  let n = 2 * cap in
  let g = Gen.path n in
  let words jobs =
    let ctx = { Sim.default_ctx with engine = Flat; jobs } in
    let before = Gc.minor_words () in
    (match
       Sim.run_flat ~max_rounds:0 ~ctx g (Bfs.flat_protocol ~n ~root:0)
     with
    | _ -> Alcotest.fail "expected the zero round limit to abort"
    | exception Sim.Round_limit _ -> ());
    Gc.minor_words () -. before
  in
  (* The first run builds the graph's memoized CSR view. *)
  ignore (words 1);
  let at_cap = words cap in
  let at_n = words n in
  check (Alcotest.float 0.) "words at jobs = n vs jobs = hard_cap" at_cap at_n

let suites =
  [
    ( "congest.sim_equiv",
      [
        qtest prop_flood_equiv;
        qtest prop_bellman_ford_equiv;
        qtest prop_pipeline_equiv;
        qtest prop_tree_ops_equiv;
        qtest prop_bfs_leader_exchange_equiv;
        qtest prop_telemetry_transparent;
        qtest prop_empty_plan_identity;
        qtest prop_flat_equiv_faults_telemetry;
        qtest prop_flat_equiv_lossless;
        qtest prop_flat_jobs_invariant;
        qtest prop_flat_native_bfs;
        qtest prop_flat_native_bellman_ford;
        qtest prop_flat_native_region_bf;
        qtest prop_flat_native_tree_ops;
        qtest prop_flat_native_pipeline;
        qtest prop_flat_native_select_exchange;
        Alcotest.test_case "det_dsf end-to-end on the flat engine" `Quick
          test_det_dsf_flat_e2e;
        Alcotest.test_case "flat adapter inbox order" `Quick
          test_flat_adapter_inbox_order;
        Alcotest.test_case "single node" `Quick test_single_node;
        Alcotest.test_case "round limit" `Quick test_round_limit_equiv;
        Alcotest.test_case "halt hook" `Quick test_halt_equiv;
        Alcotest.test_case "skips idle nodes" `Quick test_scheduler_skips_idle;
        Alcotest.test_case "observer order" `Quick test_observer_order_identical;
        Alcotest.test_case "chaos context rejected" `Quick
          test_ctx_chaos_rejected;
        Alcotest.test_case "reference crash window" `Quick
          test_reference_crash_window;
        Alcotest.test_case "flat jobs clamped to the pool cap" `Quick
          test_flat_jobs_clamped;
      ] );
  ]
