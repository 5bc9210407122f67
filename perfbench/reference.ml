(* A fixed reference load, timed right before each CLI solve, so that the
   end-to-end timings can be scaled to a nominal machine speed.

   On a few cores of a shared host, the speed the CLI gets drifts by a
   quarter, and at times by almost a half, over minutes.  Dividing each
   solve's time by the time of this load, measured just before it, cancels
   much of that drift; multiplying by [nominal_s] keeps the result in
   seconds.  The load is Dijkstra from many sources with a persistent
   priority queue, like [Paths.parameters], which every solve runs before
   its algorithm: pointer chasing and short-lived allocation in a small
   working set.  It uses only the standard library, so no change to the
   program moves it. *)

module Queue = Set.Make (struct
  type t = int * int

  let compare (d1, v1) (d2, v2) =
    match Int.compare d1 d2 with 0 -> Int.compare v1 v2 | c -> c
end)

let nodes = 1024
let sources = 6000

(* Its time on a 2-core Xeon (OCaml 5.1.1) while the host was quiet. *)
let nominal_s = 0.5

let weight u = 1 + (u * 7919 mod 16)

(* Dijkstra from [src] on the path 0 - 1 - ... - (nodes-1), where edge
   (u, u+1) weighs [weight u]; returns the distance to node 0. *)
let dijkstra src =
  let dist = Array.make nodes max_int in
  dist.(src) <- 0;
  let q = ref (Queue.singleton (0, src)) in
  while not (Queue.is_empty !q) do
    let ((du, u) as e) = Queue.min_elt !q in
    q := Queue.remove e !q;
    List.iter
      (fun v ->
        if v >= 0 && v < nodes then begin
          let d = du + weight (min u v) in
          if d < dist.(v) then begin
            dist.(v) <- d;
            q := Queue.add (d, v) !q
          end
        end)
      [ u - 1; u + 1 ]
  done;
  dist.(0)

(* Sum of all distances to node 0, from the sources the load uses. *)
let checksum = 26152952

(* Run the load once; its wall seconds. *)
let time () =
  let t0 = Unix.gettimeofday () in
  let sum = ref 0 in
  for i = 0 to sources - 1 do
    sum := !sum + dijkstra (i * 37 mod nodes)
  done;
  let dt = Unix.gettimeofday () -. t0 in
  if !sum <> checksum then
    failwith (Printf.sprintf "reference load: checksum %d, expected %d" !sum checksum);
  dt
