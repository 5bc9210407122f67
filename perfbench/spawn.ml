(* Run one child process as a black box: time from spawn to its first
   stdout line and to its exit, with a hard timeout. *)

type result = {
  status : [ `Exited of int | `Signaled of int | `Timed_out ];
  stdout : string;
  stderr : string;
  first_line_s : float option;  (** spawn to the first complete stdout line *)
  wall_s : float;  (** spawn to reaped exit *)
}

let read_file path = In_channel.with_open_bin path In_channel.input_all

let run ~prog ~args ~env ~stderr_file ~timeout_s =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err_fd =
    Unix.openfile stderr_file [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ O_RDONLY; O_CLOEXEC ] 0 in
  let t0 = Unix.gettimeofday () in
  let pid =
    Fun.protect
      ~finally:(fun () -> List.iter Unix.close [ out_w; err_fd; null ])
      (fun () ->
        Unix.create_process_env prog (Array.of_list (prog :: args)) env null out_w
          err_fd)
  in
  let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let first_line = ref None in
  let rec pump () =
    let left = timeout_s -. (Unix.gettimeofday () -. t0) in
    if left <= 0. then false
    else
      match Unix.select [ out_r ] [] [] left with
      | [], _, _ -> pump ()
      | _ ->
          let got = Unix.read out_r chunk 0 (Bytes.length chunk) in
          if got = 0 then true
          else begin
            if !first_line = None && Bytes.contains (Bytes.sub chunk 0 got) '\n'
            then first_line := Some (Unix.gettimeofday () -. t0);
            Buffer.add_subbytes buf chunk 0 got;
            pump ()
          end
      | exception Unix.Unix_error (EINTR, _, _) -> pump ()
  in
  let finished = Fun.protect ~finally:(fun () -> Unix.close out_r) pump in
  if not finished then Unix.kill pid Sys.sigkill;
  let _, st = Unix.waitpid [] pid in
  let wall_s = Unix.gettimeofday () -. t0 in
  let status =
    match finished, st with
    | false, _ -> `Timed_out
    | true, WEXITED c -> `Exited c
    | true, (WSIGNALED s | WSTOPPED s) -> `Signaled s
  in
  {
    status;
    stdout = Buffer.contents buf;
    stderr = read_file stderr_file;
    first_line_s = !first_line;
    wall_s;
  }
