(* Fault-injected integration tests for the control-plane daemon, run
   fully in-process: the poll-based server and the raw-byte clients
   interleave deterministically in one thread over a Unix-domain
   socket.  The injections come straight from ISSUE 10: split writes,
   interleaved partial frames from two connections, an oversized
   frame, an unknown tag, garbage, events before the handshake, and a
   mid-session disconnect — the daemon must degrade per contract
   (error reply + closed connection for codec faults, open connection
   for engine-level rejections) and never die.  The wire replay test
   pins the strongest property: a trace replayed over the socket
   leaves the engine in a bit-identical state to Engine.replay. *)

let sock_counter = ref 0

let sock_path () =
  incr sock_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "ovl_test_%d_%d.sock" (Unix.getpid ()) !sock_counter)

let make_graph () =
  let rng = Rng.create 11 in
  let topology = Waxman.generate rng { Waxman.default_params with n = 24 } in
  Graph.copy topology.Topology.graph

let engine_config =
  {
    Engine.default_config with
    Engine.epsilon = Max_flow.ratio_to_epsilon 0.90;
  }

let with_daemon ?(config = Daemon.default_config) f =
  let engine = Engine.create ~config:engine_config (make_graph ()) [||] in
  let path = sock_path () in
  let d = Daemon.create ~config ~engine [ Unix.ADDR_UNIX path ] in
  Fun.protect
    ~finally:(fun () ->
      Daemon.stop d;
      try Sys.remove path with Sys_error _ -> ())
    (fun () -> f d path)

let connect path = Wire_client.connect (Unix.ADDR_UNIX path)

(* in-process handshake: alternate daemon polls with client reads *)
let handshake d c =
  match Daemon.drive d c (Wire.Hello { version = Wire.version }) with
  | Ok (Wire.Hello_ack _) -> ()
  | Ok f -> Alcotest.failf "handshake got %s" (Wire.frame_name f)
  | Error msg -> Alcotest.failf "handshake failed: %s" msg

let connected d path =
  let c = connect path in
  handshake d c;
  c

(* poll the daemon until the client yields a frame or EOF *)
let await d c =
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec go () =
    match Wire_client.try_recv c with
    | `Frame f -> `Frame f
    | `Closed -> `Closed
    | `Error msg -> Alcotest.failf "client decode failed: %s" msg
    | `Pending ->
      if Unix.gettimeofday () > deadline then Alcotest.fail "await: timeout"
      else begin
        ignore (Daemon.poll ~timeout:0.01 d);
        go ()
      end
  in
  go ()

let await_frame d c =
  match await d c with
  | `Frame f -> f
  | `Closed -> Alcotest.fail "connection closed while awaiting a frame"

(* returns the report's active-session count [k] *)
let expect_report d c =
  match await_frame d c with
  | Wire.Solve_report { certified; k; _ } ->
    Alcotest.(check bool) "report certified" true certified;
    k
  | f -> Alcotest.failf "expected solve_report, got %s" (Wire.frame_name f)

let expect_error d c code =
  match await_frame d c with
  | Wire.Error e ->
    Alcotest.(check string) "error code" (Wire.error_code_name code)
      (Wire.error_code_name e.code)
  | f -> Alcotest.failf "expected error frame, got %s" (Wire.frame_name f)

let expect_closed d c =
  match await d c with
  | `Closed -> ()
  | `Frame f -> Alcotest.failf "expected EOF, got %s" (Wire.frame_name f)

let join ~at ~id ~members ~demand =
  { Churn.at; event = Churn.Session_join { id; members; demand } }

let leave ~at ~id = { Churn.at; event = Churn.Session_leave { id } }

(* a daemon that survived an injection must still serve a fresh client *)
let assert_alive d path =
  let c = connected d path in
  let r =
    Daemon.drive d c
      (Wire_event.to_frame
         (join ~at:99.0 ~id:9000 ~members:[| 0; 1; 2 |] ~demand:10.0))
  in
  (match r with
  | Ok (Wire.Solve_report _) -> ()
  | Ok f -> Alcotest.failf "alive-check got %s" (Wire.frame_name f)
  | Error msg -> Alcotest.failf "alive-check failed: %s" msg);
  (match
     Daemon.drive d c (Wire_event.to_frame (leave ~at:99.5 ~id:9000))
   with
  | Ok (Wire.Solve_report _) -> ()
  | _ -> Alcotest.fail "alive-check leave failed");
  Wire_client.close c

(* --- the headline property: wire replay == in-process replay ---------- *)

let test_wire_replay_matches_inprocess () =
  let trace =
    let g = make_graph () in
    let rng = Rng.create 8 in
    let base =
      Churn.poisson_trace rng g
        {
          Churn.default_config with
          Churn.arrival_rate = 1.5;
          mean_holding_time = 4.0;
          size_min = 3;
          size_max = 5;
          horizon = 6.0;
          demand = 50.0;
        }
        ~first_id:1
    in
    Churn.with_perturbations (Rng.create 9) g ~p_demand:0.2 ~p_capacity:0.1
      base
  in
  Alcotest.(check bool) "trace is non-trivial" true (List.length trace >= 8);
  (* in-process reference *)
  let ref_engine = Engine.create ~config:engine_config (make_graph ()) [||] in
  let ref_reports = Engine.replay ref_engine trace in
  (* the same trace over the wire *)
  with_daemon (fun d path ->
      let c = connected d path in
      List.iter2
        (fun te (r : Engine.report) ->
          Alcotest.(check bool) "in-process reference certified" true
            r.Engine.certified;
          match Daemon.drive d c (Wire_event.to_frame te) with
          | Ok (Wire.Solve_report { certified; k; warm; objective; _ }) ->
            Alcotest.(check bool) "event certified over the wire" true
              certified;
            Alcotest.(check int) "active sessions agree" r.Engine.k k;
            Alcotest.(check bool) "warm/cold split agrees" r.Engine.warm warm;
            (* the hard gate: bit-identical objective per event *)
            if
              Int64.bits_of_float r.Engine.objective
              <> Int64.bits_of_float objective
            then
              Alcotest.failf "objective diverged over the wire: %.17g vs %.17g"
                r.Engine.objective objective
          | Ok f ->
            Alcotest.failf "event %s got %s"
              (Churn.event_to_string te.Churn.event)
              (Wire.frame_name f)
          | Error msg ->
            Alcotest.failf "event %s failed: %s"
              (Churn.event_to_string te.Churn.event)
              msg)
        trace ref_reports;
      Wire_client.close c;
      Alcotest.(check int) "final session count agrees"
        (Engine.n_sessions ref_engine)
        (Engine.n_sessions (Daemon.engine d));
      if
        Int64.bits_of_float (Engine.objective ref_engine)
        <> Int64.bits_of_float (Engine.objective (Daemon.engine d))
      then Alcotest.fail "final objective diverged over the wire";
      Alcotest.(check int) "sequence numbers cover the trace"
        (List.length trace) (Daemon.seq d))

(* --- fault injections -------------------------------------------------- *)

let test_split_writes () =
  with_daemon (fun d path ->
      let c = connected d path in
      let frame =
        Wire_event.to_frame
          (join ~at:1.0 ~id:1 ~members:[| 0; 3; 7 |] ~demand:25.0)
      in
      let buf = Wire.encode frame in
      (* byte-at-a-time, with server polls between every byte *)
      for i = 0 to Bytes.length buf - 1 do
        Wire_client.send_bytes c buf ~pos:i ~len:1;
        ignore (Daemon.poll ~timeout:0.001 d)
      done;
      ignore (expect_report d c);
      (* again in two uneven chunks spanning the header boundary *)
      let buf2 = Wire.encode (Wire_event.to_frame (leave ~at:2.0 ~id:1)) in
      Wire_client.send_bytes c buf2 ~pos:0 ~len:3;
      ignore (Daemon.poll ~timeout:0.01 d);
      Wire_client.send_bytes c buf2 ~pos:3 ~len:(Bytes.length buf2 - 3);
      ignore (expect_report d c);
      Wire_client.close c;
      Alcotest.(check int) "both events applied" 2
        (Daemon.stats d).Daemon.events_applied)

let test_interleaved_partial_frames () =
  with_daemon (fun d path ->
      let ca = connected d path in
      let cb = connected d path in
      let fa =
        Wire.encode
          (Wire_event.to_frame
             (join ~at:1.0 ~id:1 ~members:[| 0; 2; 4 |] ~demand:20.0))
      in
      let fb =
        Wire.encode
          (Wire_event.to_frame
             (join ~at:1.5 ~id:2 ~members:[| 1; 3; 5 |] ~demand:30.0))
      in
      (* A sends half a frame and stalls; B's complete frame must not
         be blocked or polluted by A's partial buffer *)
      Wire_client.send_bytes ca fa ~pos:0 ~len:(Bytes.length fa / 2);
      ignore (Daemon.poll ~timeout:0.01 d);
      Wire_client.send_bytes cb fb ~pos:0 ~len:(Bytes.length fb);
      Alcotest.(check int) "B joined first" 1 (expect_report d cb);
      (* now A completes; its join lands second *)
      Wire_client.send_bytes ca fa ~pos:(Bytes.length fa / 2)
        ~len:(Bytes.length fa - (Bytes.length fa / 2));
      Alcotest.(check int) "A joined second" 2 (expect_report d ca);
      Wire_client.close ca;
      Wire_client.close cb)

let test_oversized_frame () =
  let config =
    {
      Daemon.default_config with
      Daemon.limits = { Wire.default_limits with Wire.max_frame = 128 };
    }
  in
  with_daemon ~config (fun d path ->
      let c = connected d path in
      let buf = Bytes.create 4 in
      Bytes.set_int32_be buf 0 1000l;
      Wire_client.send_bytes c buf ~pos:0 ~len:4;
      expect_error d c Wire.Limit_exceeded;
      expect_closed d c;
      Wire_client.close c;
      assert_alive d path)

let test_unknown_tag () =
  with_daemon (fun d path ->
      let c = connected d path in
      let buf = Bytes.create 5 in
      Bytes.set_int32_be buf 0 1l;
      Bytes.set_uint8 buf 4 0x7E;
      Wire_client.send_bytes c buf ~pos:0 ~len:5;
      expect_error d c Wire.Unknown_tag;
      expect_closed d c;
      Wire_client.close c;
      assert_alive d path)

let test_garbage_bytes () =
  with_daemon (fun d path ->
      let c = connect path in
      let buf = Bytes.init 64 (fun i -> Char.chr ((i * 37 + 101) land 0xFF)) in
      Wire_client.send_bytes c buf ~pos:0 ~len:64;
      (match await_frame d c with
      | Wire.Error _ -> ()
      | f -> Alcotest.failf "garbage earned %s" (Wire.frame_name f));
      expect_closed d c;
      Wire_client.close c;
      assert_alive d path)

let test_event_before_hello () =
  with_daemon (fun d path ->
      let c = connect path in
      Wire_client.send c
        (Wire_event.to_frame
           (join ~at:1.0 ~id:1 ~members:[| 0; 1; 2 |] ~demand:10.0));
      expect_error d c Wire.Not_ready;
      expect_closed d c;
      Wire_client.close c;
      Alcotest.(check int) "nothing applied" 0
        (Daemon.stats d).Daemon.events_applied;
      assert_alive d path)

let test_wrong_version_hello () =
  with_daemon (fun d path ->
      let c = connect path in
      Wire_client.send c (Wire.Hello { version = 2 });
      expect_error d c Wire.Unsupported_version;
      expect_closed d c;
      Wire_client.close c;
      assert_alive d path)

let test_bad_event_keeps_connection () =
  with_daemon (fun d path ->
      let c = connected d path in
      let j = join ~at:1.0 ~id:1 ~members:[| 0; 1; 2 |] ~demand:10.0 in
      (match Daemon.drive d c (Wire_event.to_frame j) with
      | Ok (Wire.Solve_report _) -> ()
      | _ -> Alcotest.fail "first join failed");
      (* duplicate id: engine-level rejection, connection survives *)
      (match Daemon.drive d c (Wire_event.to_frame j) with
      | Ok (Wire.Error e) ->
        Alcotest.(check string) "bad_event" "bad_event"
          (Wire.error_code_name e.code)
      | Ok f -> Alcotest.failf "duplicate join got %s" (Wire.frame_name f)
      | Error msg -> Alcotest.failf "duplicate join: %s" msg);
      (* unknown id on leave: same *)
      (match Daemon.drive d c (Wire_event.to_frame (leave ~at:2.0 ~id:42)) with
      | Ok (Wire.Error _) -> ()
      | _ -> Alcotest.fail "unknown leave must be rejected");
      (* the connection is still good for a valid event *)
      (match Daemon.drive d c (Wire_event.to_frame (leave ~at:3.0 ~id:1)) with
      | Ok (Wire.Solve_report _) -> ()
      | _ -> Alcotest.fail "connection did not survive the rejections");
      Wire_client.close c)

let test_session_limit () =
  let config =
    {
      Daemon.default_config with
      Daemon.limits = { Wire.default_limits with Wire.max_sessions = 2 };
    }
  in
  with_daemon ~config (fun d path ->
      let c = connected d path in
      let try_join id =
        Daemon.drive d c
          (Wire_event.to_frame
             (join ~at:(float_of_int id) ~id
                ~members:[| id mod 8; (id + 3) mod 8; (id + 6) mod 8 |]
                ~demand:10.0))
      in
      (match try_join 1 with Ok (Wire.Solve_report _) -> () | _ -> Alcotest.fail "join 1");
      (match try_join 2 with Ok (Wire.Solve_report _) -> () | _ -> Alcotest.fail "join 2");
      (match try_join 3 with
      | Ok (Wire.Error e) ->
        Alcotest.(check string) "limit_exceeded" "limit_exceeded"
          (Wire.error_code_name e.code)
      | _ -> Alcotest.fail "join 3 must hit the session limit");
      (* a leave frees a slot on the same, still-open connection *)
      (match Daemon.drive d c (Wire_event.to_frame (leave ~at:4.0 ~id:1)) with
      | Ok (Wire.Solve_report _) -> ()
      | _ -> Alcotest.fail "leave after limit");
      (match try_join 3 with
      | Ok (Wire.Solve_report _) -> ()
      | _ -> Alcotest.fail "join 3 after a leave");
      Wire_client.close c)

let test_mid_session_disconnect () =
  with_daemon (fun d path ->
      let c = connected d path in
      (match
         Daemon.drive d c
           (Wire_event.to_frame
              (join ~at:1.0 ~id:1 ~members:[| 0; 1; 2 |] ~demand:10.0))
       with
      | Ok (Wire.Solve_report _) -> ()
      | _ -> Alcotest.fail "join failed");
      (* vanish with half a frame in the daemon's read buffer *)
      let next =
        Wire.encode
          (Wire_event.to_frame
             (join ~at:2.0 ~id:2 ~members:[| 3; 4; 5 |] ~demand:10.0))
      in
      Wire_client.send_bytes c next ~pos:0 ~len:5;
      ignore (Daemon.poll ~timeout:0.01 d);
      Wire_client.close c;
      let deadline = Unix.gettimeofday () +. 5.0 in
      while
        (Daemon.stats d).Daemon.closed < 1
        && Unix.gettimeofday () < deadline
      do
        ignore (Daemon.poll ~timeout:0.01 d)
      done;
      Alcotest.(check int) "daemon reaped the connection" 1
        (Daemon.stats d).Daemon.closed;
      (* session 1 survives its owner; the partial join for 2 is gone *)
      Alcotest.(check int) "state kept" 1 (Engine.n_sessions (Daemon.engine d));
      let c2 = connected d path in
      (match Daemon.drive d c2 (Wire_event.to_frame (leave ~at:3.0 ~id:1)) with
      | Ok (Wire.Solve_report _) -> ()
      | _ -> Alcotest.fail "another client could not act on the session");
      Wire_client.close c2)

let test_metrics_pull () =
  with_daemon (fun d path ->
      let c = connected d path in
      (match
         Daemon.drive d c
           (Wire_event.to_frame
              (join ~at:1.0 ~id:1 ~members:[| 0; 1; 2 |] ~demand:10.0))
       with
      | Ok (Wire.Solve_report _) -> ()
      | _ -> Alcotest.fail "join failed");
      (match Daemon.drive d c (Wire.Metrics_pull { format = Wire.Prometheus }) with
      | Ok (Wire.Metrics_reply { format = Wire.Prometheus; body }) -> (
        Alcotest.(check bool) "exposition non-empty" true
          (String.length body > 0);
        match Metrics_export.validate body with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "pulled exposition invalid: %s" msg)
      | Ok f -> Alcotest.failf "metrics pull got %s" (Wire.frame_name f)
      | Error msg -> Alcotest.failf "metrics pull: %s" msg);
      (match Daemon.drive d c (Wire.Metrics_pull { format = Wire.Json }) with
      | Ok (Wire.Metrics_reply { format = Wire.Json; body }) ->
        Alcotest.(check bool) "json object" true
          (String.length body > 0 && body.[0] = '{')
      | _ -> Alcotest.fail "json metrics pull failed");
      Wire_client.close c)

let test_shutdown_frame_and_drain () =
  with_daemon (fun d path ->
      (* shutdown frame: echoed, that connection closes, daemon lives *)
      let c = connected d path in
      (match Daemon.drive d c Wire.Shutdown with
      | Ok Wire.Shutdown -> ()
      | Ok f -> Alcotest.failf "shutdown echo got %s" (Wire.frame_name f)
      | Error msg -> Alcotest.failf "shutdown echo: %s" msg);
      expect_closed d c;
      Wire_client.close c;
      assert_alive d path;
      (* daemon-wide drain: connected clients get a shutdown echo and
         EOF, and the loop reports finished *)
      let c2 = connected d path in
      Daemon.request_shutdown d;
      (match await_frame d c2 with
      | Wire.Shutdown -> ()
      | f -> Alcotest.failf "drain sent %s" (Wire.frame_name f));
      expect_closed d c2;
      Wire_client.close c2;
      let deadline = Unix.gettimeofday () +. 5.0 in
      while (not (Daemon.finished d)) && Unix.gettimeofday () < deadline do
        ignore (Daemon.poll ~timeout:0.01 d)
      done;
      Alcotest.(check bool) "drain finished" true (Daemon.finished d);
      Alcotest.(check bool) "socket file removed" false (Sys.file_exists path);
      (* the socket no longer accepts *)
      match connect path with
      | c3 ->
        (* connect may succeed at the OS level only if the path was
           rebound; any traffic must fail *)
        Wire_client.close c3;
        Alcotest.fail "drained daemon still accepting"
      | exception Unix.Unix_error _ -> ())

let test_connection_limit () =
  let config = { Daemon.default_config with Daemon.max_connections = 1 } in
  with_daemon ~config (fun d path ->
      let c1 = connected d path in
      let c2 = connect path in
      (* the refusal is written synchronously at accept time *)
      ignore (Daemon.poll ~timeout:0.01 d);
      (match await_frame d c2 with
      | Wire.Error e ->
        Alcotest.(check string) "refused" "limit_exceeded"
          (Wire.error_code_name e.code)
      | f -> Alcotest.failf "over-limit connect got %s" (Wire.frame_name f));
      expect_closed d c2;
      Wire_client.close c2;
      (* the first connection is unaffected *)
      (match
         Daemon.drive d c1
           (Wire_event.to_frame
              (join ~at:1.0 ~id:1 ~members:[| 0; 1; 2 |] ~demand:10.0))
       with
      | Ok (Wire.Solve_report _) -> ()
      | _ -> Alcotest.fail "first connection broken by the refusal");
      Wire_client.close c1)

let suite =
  [
    Alcotest.test_case "wire replay bit-identical to in-process replay" `Slow
      test_wire_replay_matches_inprocess;
    Alcotest.test_case "split writes reassemble" `Quick test_split_writes;
    Alcotest.test_case "interleaved partial frames stay per-connection" `Quick
      test_interleaved_partial_frames;
    Alcotest.test_case "oversized frame refused, daemon survives" `Quick
      test_oversized_frame;
    Alcotest.test_case "unknown tag refused, daemon survives" `Quick
      test_unknown_tag;
    Alcotest.test_case "garbage refused, daemon survives" `Quick
      test_garbage_bytes;
    Alcotest.test_case "event before hello refused" `Quick
      test_event_before_hello;
    Alcotest.test_case "wrong protocol version refused" `Quick
      test_wrong_version_hello;
    Alcotest.test_case "engine rejection keeps the connection" `Quick
      test_bad_event_keeps_connection;
    Alcotest.test_case "session limit enforced per join" `Quick
      test_session_limit;
    Alcotest.test_case "mid-session disconnect leaves state intact" `Quick
      test_mid_session_disconnect;
    Alcotest.test_case "metrics pull over the wire validates" `Quick
      test_metrics_pull;
    Alcotest.test_case "shutdown echo and SIGTERM-style drain" `Quick
      test_shutdown_frame_and_drain;
    Alcotest.test_case "connection limit refuses politely" `Quick
      test_connection_limit;
  ]
