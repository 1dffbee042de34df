type config = {
  limits : Wire.limits;
  max_connections : int;
  drain_grace : float;
}

let default_config =
  { limits = Wire.default_limits; max_connections = 64; drain_grace = 5.0 }

type conn = {
  fd : Unix.file_descr;
  mutable rbuf : Bytes.t;
  mutable rlen : int;
  outq : Bytes.t Queue.t;
  mutable wpos : int;  (* flushed prefix of the queue head *)
  mutable hello_done : bool;
  mutable closing : bool;  (* stop reading; close once outq drains *)
}

type stats = {
  accepted : int;
  refused : int;
  frames_in : int;
  events_applied : int;
  errors_sent : int;
  closed : int;
}

type t = {
  config : config;
  engine : Engine.t;
  mutable listeners : Unix.file_descr list;
  mutable socket_paths : string list;  (* of the Unix-domain listeners,
                                          unlinked when they close *)
  mutable conns : conn list;
  mutable seq : int;
  mutable shutdown_wanted : bool;  (* set (possibly from a signal
                                      handler); acted on in [poll] *)
  mutable draining : bool;
  mutable accepted : int;
  mutable refused : int;
  mutable frames_in : int;
  mutable events_applied : int;
  mutable errors_sent : int;
  mutable closed_count : int;
}

let engine t = t.engine
let seq t = t.seq

let stats t =
  {
    accepted = t.accepted;
    refused = t.refused;
    frames_in = t.frames_in;
    events_applied = t.events_applied;
    errors_sent = t.errors_sent;
    closed = t.closed_count;
  }

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()
let unlink_quietly path = try Unix.unlink path with Unix.Unix_error _ -> ()

let socket_path = function
  | Unix.ADDR_UNIX path -> Some path
  | Unix.ADDR_INET _ -> None

let listen_on addr =
  (match addr with
  | Unix.ADDR_UNIX path when Sys.file_exists path ->
    (try Unix.unlink path with Sys_error _ | Unix.Unix_error _ -> ())
  | _ -> ());
  let fd =
    Unix.socket ~cloexec:true (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0
  in
  try
    (match addr with
    | Unix.ADDR_INET _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
    | Unix.ADDR_UNIX _ -> ());
    Unix.bind fd addr;
    Unix.listen fd 16;
    fd
  with e ->
    close_quietly fd;
    raise e

let create ?(config = default_config) ~engine addrs =
  let bound =
    List.fold_left
      (fun acc addr ->
        match listen_on addr with
        | fd -> (fd, socket_path addr) :: acc
        | exception e ->
          List.iter
            (fun (fd, path) ->
              close_quietly fd;
              Option.iter unlink_quietly path)
            acc;
          raise e)
      [] addrs
    |> List.rev
  in
  {
    config;
    engine;
    listeners = List.map fst bound;
    socket_paths = List.filter_map snd bound;
    conns = [];
    seq = 0;
    shutdown_wanted = false;
    draining = false;
    accepted = 0;
    refused = 0;
    frames_in = 0;
    events_applied = 0;
    errors_sent = 0;
    closed_count = 0;
  }

(* ---- per-connection plumbing ------------------------------------- *)

let enqueue conn frame = Queue.push (Wire.encode frame) conn.outq

let send_error t conn code message =
  t.errors_sent <- t.errors_sent + 1;
  let message =
    if String.length message > 512 then String.sub message 0 512 else message
  in
  enqueue conn (Wire.Error { code; message })

let conn_dead conn =
  Queue.clear conn.outq;
  conn.wpos <- 0;
  conn.closing <- true

let rec flush_conn conn =
  match Queue.peek_opt conn.outq with
  | None -> ()
  | Some buf -> (
    match
      Unix.write conn.fd buf conn.wpos (Bytes.length buf - conn.wpos)
    with
    | n ->
      conn.wpos <- conn.wpos + n;
      if conn.wpos = Bytes.length buf then begin
        ignore (Queue.pop conn.outq);
        conn.wpos <- 0;
        flush_conn conn
      end
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> conn_dead conn)

let ensure_room conn extra =
  let need = conn.rlen + extra in
  if Bytes.length conn.rbuf < need then begin
    let nb = Bytes.create (max need (2 * Bytes.length conn.rbuf)) in
    Bytes.blit conn.rbuf 0 nb 0 conn.rlen;
    conn.rbuf <- nb
  end

let consume conn used =
  let rest = conn.rlen - used in
  if rest > 0 then Bytes.blit conn.rbuf used conn.rbuf 0 rest;
  conn.rlen <- rest

(* ---- frame semantics --------------------------------------------- *)

let metrics_body = function
  | Wire.Prometheus -> Metrics_export.prometheus ()
  | Wire.Json -> Json_export.to_string (Obs_export.registry ())

let apply_event t conn (timed : Churn.timed) =
  let is_join =
    match timed.event with Churn.Session_join _ -> true | _ -> false
  in
  if is_join && Engine.n_sessions t.engine >= t.config.limits.max_sessions then
    send_error t conn Wire.Limit_exceeded
      (Printf.sprintf "session limit %d reached" t.config.limits.max_sessions)
  else
    match Engine.apply t.engine timed with
    | report ->
      t.seq <- t.seq + 1;
      t.events_applied <- t.events_applied + 1;
      enqueue conn (Wire_event.report_to_frame ~seq:t.seq report)
    | exception Invalid_argument msg | exception Failure msg ->
      send_error t conn Wire.Bad_event msg

let handle_frame t conn frame =
  t.frames_in <- t.frames_in + 1;
  if not conn.hello_done then begin
    match frame with
    | Wire.Hello { version } when version = Wire.version ->
      conn.hello_done <- true;
      enqueue conn
        (Wire.Hello_ack { version = Wire.version; limits = t.config.limits })
    | Wire.Hello { version } ->
      send_error t conn Wire.Unsupported_version
        (Printf.sprintf "this daemon speaks overlay-wire/%d, not /%d"
           Wire.version version);
      conn.closing <- true
    | _ ->
      send_error t conn Wire.Not_ready
        (Printf.sprintf "%s before hello" (Wire.frame_name frame));
      conn.closing <- true
  end
  else
    match frame with
    | Wire.Hello _ ->
      send_error t conn Wire.Protocol_error "duplicate hello";
      conn.closing <- true
    | Wire.Session_join _ | Wire.Session_leave _ | Wire.Demand_change _
    | Wire.Capacity_change _ -> (
      match Wire_event.of_frame frame with
      | Some timed -> apply_event t conn timed
      | None -> assert false)
    | Wire.Metrics_pull { format } ->
      let body = metrics_body format in
      let reply = Wire.Metrics_reply { format; body } in
      if Wire.encoded_length reply - Wire.header_size > t.config.limits.max_frame
      then
        send_error t conn Wire.Limit_exceeded
          (Printf.sprintf "metrics body of %d bytes exceeds max_frame %d"
             (String.length body) t.config.limits.max_frame)
      else enqueue conn reply
    | Wire.Shutdown ->
      enqueue conn Wire.Shutdown;
      conn.closing <- true
    | Wire.Hello_ack _ | Wire.Solve_report _ | Wire.Metrics_reply _
    | Wire.Error _ ->
      send_error t conn Wire.Protocol_error
        (Printf.sprintf "%s is a server-to-client frame"
           (Wire.frame_name frame));
      conn.closing <- true

let rec process_buffer t conn =
  if not conn.closing then
    match
      Wire.decode ~limits:t.config.limits conn.rbuf ~pos:0 ~len:conn.rlen
    with
    | Wire.Frame (frame, used) ->
      consume conn used;
      handle_frame t conn frame;
      process_buffer t conn
    | Wire.Need _ -> ()
    | Wire.Corrupt e ->
      conn.rlen <- 0;
      send_error t conn e.code
        (Printf.sprintf "byte %d: %s" e.offset e.reason);
      conn.closing <- true

let read_conn t conn =
  ensure_room conn 65536;
  match
    Unix.read conn.fd conn.rbuf conn.rlen (Bytes.length conn.rbuf - conn.rlen)
  with
  | 0 ->
    (* EOF: anything still buffered is at most a partial frame *)
    conn.closing <- true
  | n ->
    conn.rlen <- conn.rlen + n;
    process_buffer t conn
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> conn_dead conn

(* ---- accept / select loop ---------------------------------------- *)

let refusal_bytes =
  lazy
    (Wire.encode
       (Wire.Error
          { code = Wire.Limit_exceeded; message = "connection limit reached" }))

let accept_one t lfd =
  match Unix.accept ~cloexec:true lfd with
  | fd, _ ->
    if List.length t.conns >= t.config.max_connections then begin
      t.refused <- t.refused + 1;
      let buf = Lazy.force refusal_bytes in
      (try ignore (Unix.write fd buf 0 (Bytes.length buf))
       with Unix.Unix_error _ -> ());
      close_quietly fd
    end
    else begin
      Unix.set_nonblock fd;
      t.accepted <- t.accepted + 1;
      t.conns <-
        {
          fd;
          rbuf = Bytes.create 4096;
          rlen = 0;
          outq = Queue.create ();
          wpos = 0;
          hello_done = false;
          closing = false;
        }
        :: t.conns
    end
  | exception
      Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR | ECONNABORTED), _, _) ->
    ()

let close_listeners t =
  List.iter close_quietly t.listeners;
  t.listeners <- [];
  List.iter unlink_quietly t.socket_paths;
  t.socket_paths <- []

let begin_drain t =
  if not t.draining then begin
    t.draining <- true;
    close_listeners t;
    (* in-flight events — complete frames already buffered — are still
       applied and replied to before the shutdown echo *)
    List.iter (fun c -> process_buffer t c) t.conns;
    List.iter
      (fun c ->
        if not c.closing then enqueue c Wire.Shutdown;
        c.closing <- true)
      t.conns
  end

let request_shutdown t = t.shutdown_wanted <- true

let draining t = t.draining || t.shutdown_wanted

let finished t = t.draining && t.listeners = [] && t.conns = []

let sweep_closed t =
  t.conns <-
    List.filter
      (fun c ->
        if c.closing && Queue.is_empty c.outq then begin
          close_quietly c.fd;
          t.closed_count <- t.closed_count + 1;
          false
        end
        else true)
      t.conns

let poll ?(timeout = 0.05) t =
  if t.shutdown_wanted && not t.draining then begin_drain t;
  let frames0 = t.frames_in in
  let reads =
    t.listeners
    @ List.filter_map
        (fun c -> if c.closing then None else Some c.fd)
        t.conns
  in
  let writes =
    List.filter_map
      (fun c -> if Queue.is_empty c.outq then None else Some c.fd)
      t.conns
  in
  (match Unix.select reads writes [] timeout with
  | readable, _, _ ->
    List.iter
      (fun fd -> if List.memq fd t.listeners then accept_one t fd)
      readable;
    List.iter
      (fun c -> if List.memq c.fd readable then read_conn t c)
      t.conns;
    (* opportunistic flush: replies (and error frames on a connection
       being closed) go out in the same round they were produced *)
    List.iter (fun c -> if not (Queue.is_empty c.outq) then flush_conn c) t.conns
  | exception Unix.Unix_error (EINTR, _, _) -> ());
  (* a drain requested by a signal that landed during select *)
  if t.shutdown_wanted && not t.draining then begin_drain t;
  sweep_closed t;
  t.frames_in - frames0

let drive t client frame =
  Wire_client.send client frame;
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec go () =
    match Wire_client.try_recv client with
    | `Frame f -> Ok f
    | `Error msg -> Error msg
    | `Closed -> Error "connection closed by daemon"
    | `Pending ->
      if Unix.gettimeofday () > deadline then
        Error "drive: no reply within 5s"
      else begin
        ignore (poll ~timeout:0.01 t);
        go ()
      end
  in
  go ()

let stop t =
  close_listeners t;
  List.iter
    (fun c ->
      close_quietly c.fd;
      t.closed_count <- t.closed_count + 1)
    t.conns;
  t.conns <- [];
  t.draining <- true;
  t.shutdown_wanted <- true

let run ?metrics_out t =
  let install signal handler =
    try Some (signal, Sys.signal signal handler) with
    | Invalid_argument _ | Sys_error _ -> None
  in
  let handler = Sys.Signal_handle (fun _ -> request_shutdown t) in
  let saved =
    List.filter_map Fun.id
      [
        install Sys.sigterm handler;
        install Sys.sigint handler;
        install Sys.sigpipe Sys.Signal_ignore;
      ]
  in
  let dump () =
    match metrics_out with
    | Some (path, _) -> (
      try Metrics_export.to_file path with Sys_error _ -> ())
    | None -> ()
  in
  let interval =
    match metrics_out with Some (_, iv) -> iv | None -> infinity
  in
  let next_dump = ref (Unix.gettimeofday () +. interval) in
  let drain_deadline = ref infinity in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun (s, b) -> Sys.set_signal s b) saved)
    (fun () ->
      dump ();
      while not (finished t) do
        ignore (poll ~timeout:0.25 t);
        let now = Unix.gettimeofday () in
        if now >= !next_dump then begin
          dump ();
          next_dump := now +. interval
        end;
        if draining t && !drain_deadline = infinity then
          drain_deadline := now +. t.config.drain_grace;
        if now > !drain_deadline then stop t
      done;
      dump ())
