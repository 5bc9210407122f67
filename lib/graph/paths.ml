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

(* The all-sources sweep behind [parameters], int-specialized over the CSR
   view.  Per source: a BFS with an int-array queue for D, and the
   lexicographic (dist, hops) Dijkstra of [dijkstra_hops] for WD and s.  Its
   key packs the pair as [dist lsl hop_bits + hops], so pair order is int
   order and relaxing position [p] adds [step.(p) = wgt.(p) lsl hop_bits + 1].
   The heap is two int arrays with lazy deletion: a popped key that is no
   longer its node's best is stale.  Only maxima leave the kernel, so heap
   tie-breaking cannot change the result.  Scratch is allocated once per
   call, nothing per source. *)
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
  let key = Array.make n 0 in
  let hkey = Array.make (Array.length dst + 1) 0 in
  let hnode = Array.make (Array.length dst + 1) 0 in
  let size = ref 0 in
  let push k v =
    let i = ref !size in
    incr size;
    while !i > 0 && hkey.((!i - 1) / 2) > k do
      let p = (!i - 1) / 2 in
      hkey.(!i) <- hkey.(p);
      hnode.(!i) <- hnode.(p);
      i := p
    done;
    hkey.(!i) <- k;
    hnode.(!i) <- v
  in
  (* Drop the root (the caller has read it) and sift the last entry down. *)
  let pop () =
    decr size;
    let k = hkey.(!size) and v = hnode.(!size) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let c = (2 * !i) + 1 in
      let c = if c + 1 < !size && hkey.(c + 1) < hkey.(c) then c + 1 else c in
      if c < !size && hkey.(c) < k then begin
        hkey.(!i) <- hkey.(c);
        hnode.(!i) <- hnode.(c);
        i := c
      end
      else sifting := false
    done;
    hkey.(!i) <- k;
    hnode.(!i) <- v
  in
  let d = ref 0 and wd = ref 0 and s = ref 0 in
  for src = 0 to n - 1 do
    Array.fill level 0 n (-1);
    level.(src) <- 0;
    queue.(0) <- src;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let v = queue.(!head) in
      incr head;
      for p = off.(v) to off.(v + 1) - 1 do
        let u = dst.(p) in
        if level.(u) < 0 then begin
          level.(u) <- level.(v) + 1;
          queue.(!tail) <- u;
          incr tail
        end
      done
    done;
    if !tail < n then invalid_arg "Paths: disconnected graph";
    (* BFS dequeues by level, so the last node is the farthest. *)
    if level.(queue.(n - 1)) > !d then d := level.(queue.(n - 1));
    Array.fill key 0 n max_int;
    key.(src) <- 0;
    push 0 src;
    while !size > 0 do
      let k = hkey.(0) and v = hnode.(0) in
      pop ();
      if k = key.(v) then begin
        let dist = k lsr hop_bits and hops = k land hop_mask in
        if dist > !wd then wd := dist;
        if hops > !s then s := hops;
        for p = off.(v) to off.(v + 1) - 1 do
          let u = dst.(p) and nk = k + step.(p) in
          if nk < key.(u) then begin
            key.(u) <- nk;
            push nk u
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
