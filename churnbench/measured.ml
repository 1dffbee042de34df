(* The measured run: the real [overlay_cli serve] driven over one
   Unix-domain connection with [Wire_client].  Nothing here looks
   inside the daemon; every number comes from the client's clock, the
   reports' own fields and two [metrics_pull]s. *)

type reply = {
  kind : string;
  rtt : float;  (** s, from the write of the event's batch to its report *)
  total_s : float;  (** the report's own engine time *)
  queue_wait : float;  (** s, [total_s] of the earlier events of its batch *)
  objective : float;
}

type result = {
  setup_s : float array;  (** one per set-up *)
  setups_agree : bool;  (** every set-up saw bit-identical objectives *)
  replies : reply array;  (** certified reports of the timed phase *)
  sent : Churn.timed list;  (** timed events written, in order *)
  objectives : float array;  (** report objective per sent event; nan if none *)
  batches : int;  (** batches written in the timed phase *)
  attempted : int;
  failed : int;
  error_frames : int;
  timed_s : float;
  peak_rss_mb : float;
  counters : (string * int) list;  (** timed-phase deltas, from metrics_pull *)
  drained : bool;  (** every serve of the run exited 0 after SIGTERM *)
  problems : string list;
}

exception Setup_failed of string

let reply_timeout = 30.0

let now = Obs.now

let fail_with_log (p : Serve_proc.t) msg =
  let tail = Serve_proc.log_tail p in
  Serve_proc.kill p;
  raise (Setup_failed (Printf.sprintf "%s\n--- serve output ---\n%s" msg tail))

let connect (p : Serve_proc.t) =
  let addr = Unix.ADDR_UNIX p.Serve_proc.socket in
  let deadline = now () +. 30.0 in
  let rec go () =
    if Serve_proc.exited p then fail_with_log p "serve exited before listening"
    else
      match Wire_client.connect addr with
      | c -> c
      | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
        when now () < deadline ->
        Unix.sleepf 0.002;
        go ()
      | exception Unix.Unix_error (e, _, _) ->
        fail_with_log p ("cannot connect: " ^ Unix.error_message e)
  in
  let c = go () in
  match Wire_client.handshake ~timeout:reply_timeout c with
  | Ok _ -> c
  | Error msg -> fail_with_log p ("handshake failed: " ^ msg)

(* Outcome of one event of a batch. *)
type outcome =
  | Report of reply
  | Failed of { error_frame : bool; msg : string }
      (** an [Error] frame, an uncertified report or a stray frame *)
  | Missing of string  (** no reply by the deadline, or the link died *)

(* Write [batch] in one write, then read one reply per event.  Replies
   come back in order on the connection; each must echo its event's
   timestamp. *)
let run_batch c batch =
  let frames = List.map (fun te -> Wire.encode (Wire_event.to_frame te)) batch in
  let buf = Bytes.concat Bytes.empty frames in
  let t0 = now () in
  match Wire_client.send_bytes c buf ~pos:0 ~len:(Bytes.length buf) with
  | exception Unix.Unix_error (e, _, _) ->
    List.map (fun _ -> Missing ("write: " ^ Unix.error_message e)) batch
  | () ->
    let queue = ref 0.0 and dead = ref None in
    List.map
      (fun (te : Churn.timed) ->
        match !dead with
        | Some msg -> Missing msg
        | None -> (
          match Wire_client.recv ~timeout:reply_timeout c with
          | Ok (Wire.Solve_report r) ->
            let rtt = now () -. t0 in
            let queue_wait = !queue in
            queue := !queue +. r.total_s;
            if Int64.bits_of_float r.at <> Int64.bits_of_float te.Churn.at then
              Failed
                {
                  error_frame = false;
                  msg = "report echoes another event's timestamp";
                }
            else if not r.certified then
              Failed { error_frame = false; msg = "uncertified report" }
            else
              Report
                {
                  kind = Workloads.kind_name te.Churn.event;
                  rtt;
                  total_s = r.total_s;
                  queue_wait;
                  objective = r.objective;
                }
          | Ok (Wire.Error { code; message }) ->
            Failed
              {
                error_frame = true;
                msg =
                  Printf.sprintf "error frame %s: %s"
                    (Wire.error_code_name code) message;
              }
          | Ok f ->
            Failed
              { error_frame = false; msg = "unexpected " ^ Wire.frame_name f }
          | Error msg ->
            dead := Some msg;
            Missing msg))
      batch

let counters_of_json body =
  match Json_export.of_string body with
  | Error msg -> Error ("metrics_reply is not JSON: " ^ msg)
  | Ok json -> (
    match Json_export.member "counters" json with
    | Some (Json_export.Array_ items) ->
      Ok
        (List.filter_map
           (fun item ->
             let field key f = Option.bind (Json_export.member key item) f in
             match
               (field "name" Json_export.to_str, field "value" Json_export.to_int)
             with
             | Some name, Some v -> Some (name, v)
             | _ -> None)
           items)
    | _ -> Error "metrics_reply has no counters")

let pull_counters c =
  match Wire_client.send c (Wire.Metrics_pull { format = Wire.Json }) with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | () -> (
    match Wire_client.recv ~timeout:reply_timeout c with
    | Ok (Wire.Metrics_reply { body; _ }) -> counters_of_json body
    | Ok f -> Error ("metrics_pull answered with " ^ Wire.frame_name f)
    | Error msg -> Error msg)

(* Spawn, connect, join the standing sessions, replay the ramp-up.
   Returns the live daemon, its connection and the objective bits of
   every set-up report (set-ups of one run must agree on them). *)
let set_up ~exe (w : Workloads.t) (inputs : Workloads.inputs) =
  let p =
    Serve_proc.spawn ~exe ~args_of_socket:(fun socket ->
        Workloads.serve_args w ~socket)
  in
  let c = connect p in
  let batches =
    List.map (fun e -> [ e ]) inputs.Workloads.standing_joins
    @ inputs.Workloads.ramp
  in
  let bits =
    List.concat_map
      (fun batch ->
        List.map
          (function
            | Report r -> Int64.bits_of_float r.objective
            | Failed { msg; _ } | Missing msg ->
              Wire_client.close c;
              fail_with_log p ("set-up event failed: " ^ msg))
          (run_batch c batch))
      batches
  in
  (p, c, bits)

let run ~exe ~seconds (w : Workloads.t) (inputs : Workloads.inputs) =
  let setup_s = Array.make w.Workloads.setups 0.0 in
  let first_bits = ref None and setups_agree = ref true in
  let all_drained = ref true in
  let rec setups k =
    let t0 = now () in
    let p, c, bits = set_up ~exe w inputs in
    setup_s.(k) <- now () -. t0;
    (match !first_bits with
    | None -> first_bits := Some bits
    | Some b -> if b <> bits then setups_agree := false);
    if k + 1 < w.Workloads.setups then begin
      Wire_client.close c;
      if Serve_proc.stop p then Serve_proc.remove_log p
      else all_drained := false;
      setups (k + 1)
    end
    else (p, c)
  in
  let p, c = setups 0 in
  let problems = ref [] in
  let problem msg = problems := msg :: !problems in
  let before =
    match pull_counters c with
    | Ok l -> l
    | Error msg ->
      problem ("metrics_pull before the timed phase: " ^ msg);
      []
  in
  let replies = ref [] and sent = ref [] and objectives = ref [] in
  let failed = ref 0 and error_frames = ref 0 and batches = ref 0 in
  let hung = ref false in
  let t_start = now () in
  let t_end = ref t_start in
  let rec timed = function
    | batch :: rest when (not !hung) && now () -. t_start < seconds ->
      incr batches;
      List.iter2
        (fun te outcome ->
          sent := te :: !sent;
          match outcome with
          | Report r ->
            replies := r :: !replies;
            objectives := r.objective :: !objectives
          | Failed { error_frame; msg } ->
            incr failed;
            if error_frame then incr error_frames;
            objectives := nan :: !objectives;
            if !failed <= 3 then problem msg
          | Missing msg ->
            incr failed;
            objectives := nan :: !objectives;
            if not !hung then problem ("no reply: " ^ msg);
            hung := true)
        batch (run_batch c batch);
      t_end := now ();
      timed rest
    | _ -> ()
  in
  timed inputs.Workloads.timed;
  let counters, peak_rss_mb, drained =
    if !hung then begin
      problem ("daemon killed at the deadline\n" ^ Serve_proc.log_tail p);
      Wire_client.close c;
      Serve_proc.kill p;
      ([], nan, false)
    end
    else begin
      let after =
        match pull_counters c with
        | Ok l -> l
        | Error msg ->
          problem ("metrics_pull after the timed phase: " ^ msg);
          []
      in
      let rss = Option.value (Serve_proc.peak_rss_mb p) ~default:nan in
      Wire_client.close c;
      let drained = Serve_proc.stop p in
      if not drained then
        problem ("serve did not drain cleanly\n" ^ Serve_proc.log_tail p);
      let delta (name, v) =
        match List.assoc_opt name before with
        | Some b -> Some (name, v - b)
        | None -> None
      in
      (List.filter_map delta after, rss, drained)
    end
  in
  if !problems = [] then Serve_proc.remove_log p;
  {
    setup_s;
    setups_agree = !setups_agree;
    replies = Array.of_list (List.rev !replies);
    sent = List.rev !sent;
    objectives = Array.of_list (List.rev !objectives);
    batches = !batches;
    attempted = List.length !sent;
    failed = !failed;
    error_frames = !error_frames;
    timed_s = !t_end -. t_start;
    peak_rss_mb;
    counters;
    drained = drained && !all_drained;
    problems = List.rev !problems;
  }
