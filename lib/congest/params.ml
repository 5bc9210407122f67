module Graph = Dsf_graph.Graph

let count_nodes ?ctx g =
  let root = Bfs.max_id_root g in
  let tree, s1 = Bfs.build ?ctx g ~root in
  let n, s2 = Tree_ops.count_nodes ?ctx g ~tree in
  n, s1.Sim.rounds + s2.Sim.rounds

let diameter_upper_bound ?ctx g =
  let root = Bfs.max_id_root g in
  let tree, s1 = Bfs.build ?ctx g ~root in
  2 * tree.Bfs.height, s1.Sim.rounds

let estimate_s ?ctx ~cap g =
  let root = Bfs.max_id_root g in
  match
    Bellman_ford.run ~max_rounds:(cap + 1) ?ctx g
      ~sources:[ root, 0 ]
  with
  | res, stats ->
      (* Stabilization is detected O(D) after it happens; charge the
         detection by reporting the simulated rounds as-is (quiescence
         already includes the tail). *)
      `Stabilized res.Bellman_ford.rounds, stats.Sim.rounds
  | exception Sim.Round_limit a -> `Exceeded, a.Sim.at_round

let isqrt = Dsf_util.Intmath.isqrt

let regime ?(ctx = Sim.default_ctx) g =
  Telemetry.span_opt ctx.telemetry "regime_test" @@ fun () ->
  let n, r1 = count_nodes ~ctx g in
  let cap = isqrt n in
  match estimate_s ~ctx ~cap g with
  | `Stabilized s, r2 -> `Small_s s, r1 + r2
  | `Exceeded, r2 -> `Large_s, r1 + r2
