(* Parser and checks for the stdout of `dsf_cli solve`, and for the
   runtime's exit report on its stderr (OCAMLRUNPARAM=v=0x400). *)

type header = { n : int; m : int; s : int; t : int; k : int }

type t = {
  header : header option;
  weight : int option;
  feasible : bool option;  (** from the "solution weight:" line *)
  certified : string option;  (** text after "certified: " *)
  cert_failure : string option;  (** text after "CERTIFICATION FAILED: " *)
  rounds : int option;
  events : int option;  (** from "wrote flightlog to ... (N events)" *)
}

let empty =
  {
    header = None;
    weight = None;
    feasible = None;
    certified = None;
    cert_failure = None;
    rounds = None;
    events = None;
  }

let after prefix line =
  let lp = String.length prefix in
  if String.starts_with ~prefix line then Some (String.sub line lp (String.length line - lp))
  else None

let parse_line acc line =
  let scan fmt f () = Scanf.sscanf_opt line fmt f in
  let text prefix f () = Option.map f (after prefix line) in
  let parsers =
    [
      scan "instance: n=%d m=%d D=%_d WD=%_d s=%d t=%d k=%d%!"
        (fun n m s t k -> { acc with header = Some { n; m; s; t; k } });
      scan "solution weight: %d (feasible: %B)%!" (fun w f ->
          { acc with weight = Some w; feasible = Some f });
      scan "rounds: %d (%_s@)%!" (fun r -> { acc with rounds = Some r });
      scan "wrote flightlog to %_s (%d events)%!" (fun e ->
          { acc with events = Some e });
      text "certified: " (fun c -> { acc with certified = Some c });
      text "CERTIFICATION FAILED: " (fun f -> { acc with cert_failure = Some f });
    ]
  in
  Option.value ~default:acc (List.find_map (fun p -> p ()) parsers)

let parse text =
  List.fold_left parse_line empty (String.split_on_char '\n' text)

(* Every reason this output counts as a failed run; [] when it passed. *)
let problems o =
  List.filter_map Fun.id
    [
      (if o.header = None then Some "missing instance: line" else None);
      (if o.weight = None then Some "missing solution weight: line" else None);
      (if o.feasible = Some false then Some "solution infeasible" else None);
      Option.map (fun f -> "CERTIFICATION FAILED: " ^ f) o.cert_failure;
      (match o.certified, o.cert_failure with
      | None, None -> Some "missing certified: line"
      | Some c, _ when String.starts_with ~prefix:"feasible=false" c ->
          Some "certified feasible=false"
      | _ -> None);
      (if o.rounds = None then Some "missing rounds: line" else None);
    ]

let top_heap_words stderr =
  List.find_map
    (fun line -> Scanf.sscanf_opt line "top_heap_words: %d%!" Fun.id)
    (String.split_on_char '\n' stderr)
