(* The benchmark's workloads: which instances they solve, how the CLI is
   invoked on them, and what the CLI's instance header must say. *)

module Gen = Dsf_graph.Gen
module Instance = Dsf_graph.Instance

type family = Weighted_path | Random_connected
type algo = Det_flat | Rand

type t = {
  name : string;
  why : string;
  family : family;
  n : int;
  algo : algo;
  jobs : int;
  record_check : bool;
      (** the traced run also solves once with --record and --trace, and
          checks the CLI's event count against its recorder leg *)
  instances : int;  (** instances generated from one seed *)
}

let terminals = 16
let components = 4
let max_w = 16

let all =
  [
    {
      name = "det-path";
      why =
        "det --flat on a weighted path, n=4096 (s=n-1), one block per \
         component: the engine's narrow-round worst case, where the \
         central parameter oracle dominates setup";
      family = Weighted_path;
      n = 4096;
      algo = Det_flat;
      jobs = 1;
      record_check = true;
      instances = 10;
    };
    {
      name = "rand-random";
      why =
        "rand --jobs 2 on random_connected, n=1024 (s~17 << sqrt n): the \
         active engine with wide rounds, the embed virtual tree and the \
         domain pool, which det-path does not use";
      family = Random_connected;
      n = 1024;
      algo = Rand;
      jobs = 2;
      record_check = false;
      instances = 7;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

let algo_name = function
  | Det_flat -> "det"
  | Rand -> "rand"

let family_name = function
  | Weighted_path -> "path"
  | Random_connected -> "random"

(* Terminals on a path of [n] nodes: component [c] owns the [c]-th of
   [components] equal blocks, and has one terminal at a random node of each
   of [terminals / components] equal cells of the block's middle half.  Gaps
   (in hops) inside a component are then under half the gaps between
   components, so each component closes on its own and the run has the
   same phases on every instance.  [Gen.spread_labels] also gives each component one
   contiguous region of a path, but of random size and with terminals
   anywhere in it; the rounds of single instances then ranged from 41k to
   104k. *)
let clustered_path_labels rng ~n =
  let per = terminals / components in
  let block = n / components in
  let cell = block / (2 * per) in
  let labels = Array.make n (-1) in
  for c = 0 to components - 1 do
    for j = 0 to per - 1 do
      labels.((c * block) + (block / 4) + (j * cell) + Dsf_util.Rng.int rng cell) <- c
    done
  done;
  labels

(* Instance [index] of the set a seed makes. *)
let generate w ~seed ~index =
  let rng = Dsf_util.Rng.split (Dsf_util.Rng.create seed) index in
  match w.family with
  | Weighted_path ->
      let g = Gen.reweight rng ~max_w (Gen.path w.n) in
      Instance.make_ic g (clustered_path_labels rng ~n:w.n)
  | Random_connected ->
      let g = Gen.random_connected rng ~n:w.n ~extra_edges:w.n ~max_w in
      (* [Gen.spread_labels] places fewer than [terminals] terminals when a
         component's region is smaller than its share; draw again from the
         same stream until it places all of them. *)
      let rec labels () =
        let l = Gen.spread_labels rng g ~t:terminals ~k:components in
        if Array.fold_left (fun c x -> if x >= 0 then c + 1 else c) 0 l = terminals then l
        else labels ()
      in
      Instance.make_ic g (labels ())

let instance_text inst = Format.asprintf "%a" Dsf_graph.Io.print_ic inst

let instance_file w ~dir ~seed ~index =
  Filename.concat dir
    (Printf.sprintf "%s-n%d-seed%d-%d.txt" (family_name w.family) w.n seed index)

(* Arguments after the program name.  [seed] feeds the CLI's own coins
   (only rand draws any); with [record], the CLI writes its flightlog and
   trace next to [out]. *)
let cli_args w ~file ~seed ~out ~record =
  [
    "solve"; "--algo"; algo_name w.algo; "--file"; file; "--seed";
    string_of_int seed; "--jobs"; string_of_int w.jobs; "--terminals";
    string_of_int terminals; "--components"; string_of_int components;
  ]
  @ (if w.algo = Det_flat then [ "--flat" ] else [])
  @
  if record then [ "--record"; out ^ ".flightlog"; "--trace"; out ^ ".jsonl" ]
  else []

let expected_m w =
  match w.family with Weighted_path -> w.n - 1 | Random_connected -> (2 * w.n) - 1

(* The CLI's "instance:" header against the spec: n, m, t and k exactly;
   s = n-1 on a path, and s below sqrt n on the random family (the s << sqrt
   n regime the workload is chosen for). *)
let check_header w (h : Cli_output.header) =
  let s_ok =
    match w.family with
    | Weighted_path -> h.s = w.n - 1
    | Random_connected -> h.s * h.s < w.n
  in
  if h.n = w.n && h.m = expected_m w && h.t = terminals && h.k = components && s_ok
  then Ok ()
  else
    Error
      (Printf.sprintf "instance header n=%d m=%d s=%d t=%d k=%d off spec for %s"
         h.n h.m h.s h.t h.k w.name)
