(** Centralized shortest-path algorithms and the graph parameters the paper's
    bounds are stated in: unweighted diameter [D], weighted diameter [WD], and
    shortest-path diameter [s] (the maximum, over node pairs, of the minimum
    hop count among least-weight paths — Section 2). *)

val dijkstra : Graph.t -> src:int -> int array * int array
(** [dijkstra g ~src] returns [(dist, parent)].  [dist.(v)] is the weighted
    distance from [src] ([max_int] if unreachable); [parent.(v)] is the
    predecessor on a least-weight, least-hop path ([-1] for [src] and
    unreachable nodes). *)

val dijkstra_hops : Graph.t -> src:int -> int array * int array * int array
(** Like {!dijkstra} but also returns the hop count of the least-hop
    least-weight path to each node. *)

val shortest_path : Graph.t -> src:int -> dst:int -> (int list * int) option
(** Node sequence (from [src] to [dst]) and weight of a least-weight
    least-hop path, or [None] if disconnected. *)

val path_edges : Graph.t -> int list -> int list
(** Edge ids along a node sequence.  Raises if consecutive nodes are not
    adjacent. *)

val bfs : Graph.t -> src:int -> int array * int array
(** Unweighted distances and BFS-tree parents. *)

val bfs_multi : Graph.t -> srcs:int list -> int array
(** Unweighted distance to the nearest source. *)

val all_pairs : Graph.t -> int array array
(** All-pairs weighted distances (repeated Dijkstra). *)

val eccentricity_unweighted : Graph.t -> int -> int

val parameters : Graph.t -> int * int * int
(** [(d, wd, s)], exactly, from one kernel over the CSR view that visits
    sources periphery inward (decreasing BFS level from a central node
    found by a double sweep).  It relies on two facts:
    - {e eccentricity bounds} for [D]: a BFS from [v] gives
      ecc(w) <= ecc(v) + d(v,w) for every [w], so a source is searched
      only while that bound exceeds the largest eccentricity found; and
      two nodes within [l] of the centre are at most 2l apart, so the
      visit stops at the first level [l] where 2l does not exceed it.  A
      handful of BFSs usually settles [D].
    - {e pair symmetry} for [WD] and [s]: least weight, and least hops
      among least-weight paths, are symmetric on an undirected graph.  So
      the lexicographic (weight, hops) Dijkstra on packed int keys from
      each source stops once every later source is settled, and each
      unordered pair is swept once.

    The worst case is still O(n·(m log n)) time: on a cycle every node has
    the same eccentricity, so half the sources get a BFS, and each search
    settles about 3n/4 nodes on average.  Scratch is O(n + m) words per
    graph, with no allocation per source.  The triple is memoized on the
    graph ({!Graph.memo_parameters}), so later calls on the same graph, and
    {!diameter_unweighted} and {!diameter_weighted}, cost nothing.  Raises
    [Invalid_argument] if the graph is disconnected, or if its total weight
    exceeds [max_int lsr (ceil_log2 (n + 1) + 1)], where a packed
    (weight, hops) key could overflow (2{^ 46} - 1 at n = 16384). *)

val diameter_unweighted : Graph.t -> int
(** [D], the first component of {!parameters}. *)

val diameter_weighted : Graph.t -> int
(** [WD], the second component of {!parameters}. *)
