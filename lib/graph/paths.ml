module Heap = Dsf_util.Heap

let inf = max_int

(* Lexicographic Dijkstra on (weight, hops): among least-weight paths we keep
   one with the fewest hops, which is exactly the path family the
   shortest-path diameter [s] is defined over. *)
let dijkstra_hops g ~src =
  let n = Graph.n g in
  let dist = Array.make n inf in
  let hops = Array.make n inf in
  let parent = Array.make n (-1) in
  let settled = Array.make n false in
  let cmp (d1, h1, _, _) (d2, h2, _, _) = compare (d1, h1) (d2, h2) in
  let heap = Heap.create ~cmp in
  dist.(src) <- 0;
  hops.(src) <- 0;
  Heap.push heap (0, 0, src, -1);
  let rec loop () =
    match Heap.pop heap with
    | None -> ()
    | Some (d, h, v, par) ->
        if not settled.(v) then begin
          settled.(v) <- true;
          dist.(v) <- d;
          hops.(v) <- h;
          parent.(v) <- par;
          Array.iter
            (fun (nb, w, _) ->
              if not settled.(nb) then begin
                let nd = d + w and nh = h + 1 in
                if (nd, nh) < (dist.(nb), hops.(nb)) then begin
                  dist.(nb) <- nd;
                  hops.(nb) <- nh;
                  Heap.push heap (nd, nh, nb, v)
                end
              end)
            (Graph.adj g v)
        end;
        loop ()
  in
  loop ();
  (* Reset unreachable markers: dist stays inf, hops inf, parent -1. *)
  dist, parent, hops

let dijkstra g ~src =
  let dist, parent, _ = dijkstra_hops g ~src in
  dist, parent

let shortest_path g ~src ~dst =
  let dist, parent, _ = dijkstra_hops g ~src in
  if dist.(dst) = inf then None
  else begin
    let rec build acc v = if v = src then v :: acc else build (v :: acc) parent.(v) in
    Some (build [] dst, dist.(dst))
  end

let path_edges g nodes =
  let rec go acc = function
    | [] | [ _ ] -> List.rev acc
    | u :: (v :: _ as rest) -> begin
        match Graph.find_edge g u v with
        | Some id -> go (id :: acc) rest
        | None -> invalid_arg "Paths.path_edges: non-adjacent consecutive nodes"
      end
  in
  go [] nodes

let bfs g ~src =
  let n = Graph.n g in
  let dist = Array.make n inf in
  let parent = Array.make n (-1) in
  let q = Queue.create () in
  dist.(src) <- 0;
  Queue.add src q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    Array.iter
      (fun (nb, _, _) ->
        if dist.(nb) = inf then begin
          dist.(nb) <- dist.(v) + 1;
          parent.(nb) <- v;
          Queue.add nb q
        end)
      (Graph.adj g v)
  done;
  dist, parent

let bfs_multi g ~srcs =
  let n = Graph.n g in
  let dist = Array.make n inf in
  let q = Queue.create () in
  List.iter
    (fun s ->
      if dist.(s) = inf then begin
        dist.(s) <- 0;
        Queue.add s q
      end)
    srcs;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    Array.iter
      (fun (nb, _, _) ->
        if dist.(nb) = inf then begin
          dist.(nb) <- dist.(v) + 1;
          Queue.add nb q
        end)
      (Graph.adj g v)
  done;
  dist

let all_pairs g =
  Array.init (Graph.n g) (fun src -> fst (dijkstra g ~src))

let eccentricity_unweighted g v =
  let dist, _ = bfs g ~src:v in
  Array.fold_left
    (fun acc d ->
      if d = inf then invalid_arg "Paths: disconnected graph" else max acc d)
    0 dist

(* The all-sources kernel behind [parameters], int-specialized over the CSR
   view.  Sources are visited periphery inward: in decreasing BFS level
   from a central node [c], found by a double sweep (BFS from node 0, BFS
   from the farthest node [a], then the midpoint of the path from [a] to
   the farthest node [b]).

   D: a BFS from [v] proves ecc(w) <= ecc(v) + d(v,w) for every [w]
   (Takes & Kosters 2011), and [d] is the largest eccentricity found so far,
   a lower bound on D.  A source is searched only while that upper bound
   still exceeds [d], and the visit stops at the first level [l] from [c]
   with 2l <= [d].  So D is exact after a handful of BFSs unless most
   eccentricities are equal (a cycle searches half its nodes).

   WD and s: weight and least-hop-among-least-weight hops are symmetric on
   an undirected graph, so each unordered pair is swept once.  The search
   from the k-th source stops once every later source is settled, and the
   last source needs none.  The search is the lexicographic (dist, hops)
   Dijkstra of [dijkstra_hops] on a key packing the pair as
   [dist lsl hop_bits + hops], so pair order is int order and relaxing
   position [p] adds [step.(p) = wgt.(p) lsl hop_bits + 1].  The heap is two
   int arrays with lazy deletion: a popped key that is no longer its node's
   best is stale.  Only maxima leave the kernel, so neither heap
   tie-breaking nor the source order can change the result.  Scratch is
   allocated once per call, nothing per source. *)
let sweep g =
  let n = Graph.n g in
  let { Graph.off; dst; wgt; _ } = Graph.csr g in
  (* Keys stay below [max_int]: a settled node's least-hop path is simple,
     so a key popped or pushed, including one edge past a settled node,
     has at most n hops (within [hop_bits]) and weighs at most twice the
     total weight (within [max_int lsr hop_bits] by the guard). *)
  let hop_bits = Dsf_util.Intmath.ceil_log2 (n + 1) in
  let hop_mask = (1 lsl hop_bits) - 1 in
  let limit = max_int lsr (hop_bits + 1) in
  ignore
    (Array.fold_left
       (fun acc (e : Graph.edge) ->
         if e.w > limit - acc then
           invalid_arg "Paths.parameters: total weight overflows the packed key";
         acc + e.w)
       0 (Graph.edges g));
  let step = Array.map (fun w -> (w lsl hop_bits) + 1) wgt in
  let level = Array.make n 0 and queue = Array.make n 0 in
  let hkey = Array.make (Array.length dst + 1) 0 in
  let hnode = Array.make (Array.length dst + 1) 0 in
  (* BFS from [src] into [level] and [queue]; returns its eccentricity.
     BFS dequeues by level, so the last node queued is a farthest one. *)
  let bfs src =
    Array.fill level 0 n (-1);
    level.(src) <- 0;
    queue.(0) <- src;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let v = queue.(!head) in
      let lu = level.(v) + 1 in
      incr head;
      for p = off.(v) to off.(v + 1) - 1 do
        let u = dst.(p) in
        if level.(u) < 0 then begin
          level.(u) <- lu;
          queue.(!tail) <- u;
          incr tail
        end
      done
    done;
    if !tail < n then invalid_arg "Paths: disconnected graph";
    level.(queue.(n - 1))
  in
  (* The two phases share scratch, which keeps the kernel's allocation at
     3 words per node and 3 per directed edge.  The first BFS raises unless
     the graph is connected, so m >= n - 1 and the 2m + 1 heap key slots
     can hold the upper bounds [hi] until the pair sweep needs the heap. *)
  let e0 = bfs 0 in
  let d = ref 0 and hi = hkey in
  Array.fill hi 0 n max_int;
  (* Fold the BFS just run, from a source of eccentricity [e], into [d]
     and every node's upper bound. *)
  let bound e =
    if e > !d then d := e;
    for w = 0 to n - 1 do
      let h = e + level.(w) in
      if h < hi.(w) then hi.(w) <- h
    done
  in
  bound e0;
  bound (bfs queue.(n - 1));
  (* Walk back from [b] along decreasing levels to the middle of [a]-[b]. *)
  let c = ref queue.(n - 1) and mid = level.(queue.(n - 1)) / 2 in
  while level.(!c) > mid do
    let v = !c in
    let p = ref off.(v) in
    while level.(dst.(!p)) <> level.(v) - 1 do
      incr p
    done;
    c := dst.(!p)
  done;
  bound (bfs !c);
  (* The heap's node slots are free until the pair sweep as well: they keep
     each node's level from [c]. *)
  let order = Array.init n (fun i -> queue.(n - 1 - i)) and clevel = hnode in
  Array.blit level 0 clevel 0 n;
  (* Once a source at level [l] from [c] is reached with 2l <= [d], stop:
     every deeper source is settled, and two nodes within [l] of [c] are at
     most 2l apart (iFUB, Crescenzi et al. 2013). *)
  let i = ref 0 in
  while !i < n && 2 * clevel.(order.(!i)) > !d do
    let w = order.(!i) in
    if hi.(w) > !d then bound (bfs w);
    incr i
  done;
  (* The BFS arrays are free now: [level] holds the keys and [queue] flags
     the finished sources. *)
  let key = level and finished = queue in
  Array.fill finished 0 n 0;
  let wd = ref 0 and s = ref 0 in
  for i = 0 to n - 2 do
    let src = order.(i) in
    finished.(src) <- 1;
    let pending = ref (n - 1 - i) in
    Array.fill key 0 n max_int;
    key.(src) <- 0;
    hkey.(0) <- 0;
    hnode.(0) <- src;
    let size = ref 1 in
    while !size > 0 do
      let k = hkey.(0) and v = hnode.(0) in
      (* Pop: move the hole at the root down along the smaller child to a
         leaf, then sift the last entry up into it.  A [max_int] sentinel
         in the vacated last slot lets the child choice skip its bounds
         test, and [Bool.to_int] keeps that unpredictable choice free of
         branches. *)
      decr size;
      let last = !size in
      let lk = hkey.(last) and lv = hnode.(last) in
      hkey.(last) <- max_int;
      let h = ref 0 and c = ref 1 in
      while !c < last do
        let m = !c + Bool.to_int (hkey.(!c + 1) < hkey.(!c)) in
        hkey.(!h) <- hkey.(m);
        hnode.(!h) <- hnode.(m);
        h := m;
        c := (2 * m) + 1
      done;
      while !h > 0 && hkey.((!h - 1) / 2) > lk do
        let p = (!h - 1) / 2 in
        hkey.(!h) <- hkey.(p);
        hnode.(!h) <- hnode.(p);
        h := p
      done;
      hkey.(!h) <- lk;
      hnode.(!h) <- lv;
      if k = key.(v) then begin
        let dist = k lsr hop_bits and hops = k land hop_mask in
        if dist > !wd then wd := dist;
        if hops > !s then s := hops;
        if finished.(v) = 0 then decr pending;
        if !pending = 0 then size := 0
        else
          for p = off.(v) to off.(v + 1) - 1 do
            let u = dst.(p) and nk = k + step.(p) in
            if nk < key.(u) then begin
              key.(u) <- nk;
              (* Push: sift up from a new last slot. *)
              let h = ref !size in
              incr size;
              while !h > 0 && hkey.((!h - 1) / 2) > nk do
                let q = (!h - 1) / 2 in
                hkey.(!h) <- hkey.(q);
                hnode.(!h) <- hnode.(q);
                h := q
              done;
              hkey.(!h) <- nk;
              hnode.(!h) <- u
            end
          done
      end
    done
  done;
  !d, !wd, !s

let parameters g = Graph.memo_parameters g sweep

let diameter_unweighted g =
  let d, _, _ = parameters g in
  d

let diameter_weighted g =
  let _, wd, _ = parameters g in
  wd
