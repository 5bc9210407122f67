(* Order statistics over benchmark samples, and the metric-name grammar. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Python's [statistics.quantiles(xs, n=4)] with its default "exclusive"
   method, so the spreads printed here match the ones computed from a
   series of runs. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Summary.quartiles: need at least two samples";
  let n = 4 and m = ld + 1 in
  let cut i =
    let j = max 1 (min (ld - 1) (i * m / n)) in
    let delta = (i * m) - (j * n) in
    ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta))
    /. float_of_int n
  in
  cut 1, cut 2, cut 3

(* Interquartile range as a share of the median. *)
let spread xs =
  let q1, _, q3 = quartiles xs in
  (q3 -. q1) /. Dsf_util.Stats.median xs

(* Linear interpolation between closest ranks (numpy's default). *)
let percentile p xs =
  let a = sorted xs in
  let len = Array.length a in
  if len = 0 then invalid_arg "Summary.percentile: no samples";
  let h = float_of_int (len - 1) *. p /. 100. in
  let lo = truncate h in
  if lo >= len - 1 then a.(len - 1)
  else a.(lo) +. ((h -. float_of_int lo) *. (a.(lo + 1) -. a.(lo)))

let tail_ladder = [ 99.9; 99.; 95.; 90.; 75.; 50. ]

(* The highest percentile of [tail_ladder] that has at least ten samples
   strictly beyond it, with its value; [None] below 20 samples. *)
let tail xs =
  List.find_map
    (fun p ->
      let v = percentile p xs in
      if List.length (List.filter (fun x -> x > v) xs) >= 10 then Some (p, v)
      else None)
    tail_ladder

let is_name_char c =
  match c with
  | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
  | _ -> false

(* [A-Za-z0-9_.-]+, at most 64 characters, starting with a letter or a
   digit. *)
let valid_metric_name s =
  let len = String.length s in
  len >= 1 && len <= 64
  && String.for_all is_name_char s
  && (match s.[0] with '_' | '.' | '-' -> false | _ -> true)
