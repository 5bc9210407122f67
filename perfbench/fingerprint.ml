(* What a result was measured on: machine, runtime, workload seed and the
   source tree. *)

let cpuinfo () =
  try
    In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all
    |> String.split_on_char '\n'
  with Sys_error _ -> []

let field line =
  match String.index_opt line ':' with
  | Some i ->
      let rest = String.sub line (i + 1) (String.length line - i - 1) in
      Some (String.trim (String.sub line 0 i), String.trim rest)
  | None -> None

let command_output prog args =
  try
    let ic = Unix.open_process_args_in prog (Array.of_list (prog :: args)) in
    let out = In_channel.input_all ic in
    match Unix.close_process_in ic with
    | WEXITED 0 -> Some (String.trim out)
    | _ -> None
  with Unix.Unix_error _ -> None

(* The git rev and dirty flag when the tree is a git checkout; "none"
   otherwise, where the source digest alone identifies the tree. *)
let git () =
  if not (Sys.file_exists ".git") then "none", "unknown"
  else
    let git args = command_output "git" args in
    match git [ "rev-parse"; "HEAD" ], git [ "status"; "--porcelain" ] with
    | Some rev, Some status -> rev, string_of_bool (status <> "")
    | _ -> "none", "unknown"

(* MD5 over the names and contents of every file the solver is built
   from, in sorted order. *)
let source_digest () =
  let rec files path =
    if Sys.is_directory path then
      Sys.readdir path |> Array.to_list |> List.sort compare
      |> List.concat_map (fun f -> files (Filename.concat path f))
    else [ path ]
  in
  List.concat_map files [ "dune-project"; "bin"; "lib" ]
  |> List.map (fun f -> f ^ "\000" ^ Digest.to_hex (Digest.file f))
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

let to_json ~workload ~seed ~trace ~instance_digest =
  let info = List.filter_map field (cpuinfo ()) in
  let nproc = List.length (List.filter (fun (k, _) -> k = "processor") info) in
  let model = Option.value ~default:"unknown" (List.assoc_opt "model name" info) in
  let rev, dirty = git () in
  let s = Metric.json_string in
  Printf.sprintf
    "{\"workload\": %s, \"seed\": %d, \"trace\": %d, \"nproc\": %d, \"cpu\": %s, \
     \"ocaml\": %s, \"OCAMLRUNPARAM\": %s, \"git_rev\": %s, \"dirty\": %s, \
     \"source_md5\": %s, \"instances_md5\": %s}"
    (s workload) seed trace nproc (s model) (s Sys.ocaml_version)
    (s (Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM")))
    (s rev) (s dirty) (s (source_digest ())) (s instance_digest)
