(* One [overlay_cli serve] child: spawned on a socket of its own,
   reaped on every exit path, killed when it hangs.  Its stdout and
   stderr go to a log file so a failure can quote them. *)

type t = {
  pid : int;
  socket : string;
  log : string;
  mutable status : Unix.process_status option;
}

let live : t list ref = ref []
let counter = ref 0

(* Sockets and logs live in a directory under the working directory,
   named relative to it so the Unix-domain path stays short. *)
let run_dir = ".churnbench"

let ensure_run_dir () =
  if not (Sys.file_exists run_dir) then Unix.mkdir run_dir 0o755

let remove_quietly path = try Sys.remove path with Sys_error _ -> ()

let spawn ~exe ~args_of_socket =
  ensure_run_dir ();
  incr counter;
  let stem =
    Filename.concat run_dir
      (Printf.sprintf "serve-%d-%d" (Unix.getpid ()) !counter)
  in
  let socket = stem ^ ".sock" and log = stem ^ ".log" in
  remove_quietly socket;
  let fd =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let args = Array.of_list (exe :: args_of_socket socket) in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> Unix.create_process exe args Unix.stdin fd fd)
  in
  let t = { pid; socket; log; status = None } in
  live := t :: !live;
  t

let exited t =
  match t.status with
  | Some _ -> true
  | None -> (
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ -> false
    | _, st ->
      t.status <- Some st;
      true
    | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
      t.status <- Some (Unix.WEXITED 255);
      true)

let signal t s =
  if not (exited t) then try Unix.kill t.pid s with Unix.Unix_error _ -> ()

(* Wait up to [within] seconds for the child to exit. *)
let wait_exit t ~within =
  let deadline = Unix.gettimeofday () +. within in
  while (not (exited t)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.005
  done;
  exited t

let forget t =
  live := List.filter (fun u -> u != t) !live;
  remove_quietly t.socket

(* SIGKILL and reap: for a hung daemon and for every abnormal exit. *)
let kill t =
  signal t Sys.sigkill;
  ignore (wait_exit t ~within:5.0);
  forget t

(* SIGTERM asks serve to drain and exit 0; a daemon that does not
   finish within 10 s is killed.  Returns whether it drained cleanly. *)
let stop t =
  signal t Sys.sigterm;
  let drained = wait_exit t ~within:10.0 in
  if not drained then kill t else forget t;
  drained && t.status = Some (Unix.WEXITED 0)

let kill_all () = List.iter kill !live

(* The last 2000 bytes of the child's output. *)
let log_tail t =
  match open_in_bin t.log with
  | exception Sys_error _ -> ""
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let n = in_channel_length ic in
        let start = max 0 (n - 2000) in
        seek_in ic start;
        really_input_string ic (n - start))

let remove_log t = remove_quietly t.log

(* Peak resident set of the child, from [VmHWM] in /proc. *)
let peak_rss_mb t =
  let path = Printf.sprintf "/proc/%d/status" t.pid in
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go () =
          match input_line ic with
          | exception End_of_file -> None
          | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6))
                " %d kB" (fun kb -> Some (float_of_int kb /. 1024.0))
            else go ()
        in
        go ())

let () =
  at_exit kill_all;
  let bail _ =
    kill_all ();
    exit 130
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle bail);
  Sys.set_signal Sys.sigint (Sys.Signal_handle bail);
  (* a daemon that dies mid-write must surface as EPIPE, not kill us *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore
