(* Tests for the trace pipeline added around lib/obs: the streaming
   JSONL sink (Obs_stream, schema overlay-obs-trace/2), the trace
   reader (Obs_export.read_trace over both schemas, including
   ring-wraparound and truncated streams), and the lib/analysis
   reports, checked against hand-built event arrays with known
   answers. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 0.0))  (* exact equality *)

let with_tmp f =
  let path = Filename.temp_file "test_trace" ".json" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let ok_exn = function
  | Ok r -> r
  | Error msg -> Alcotest.failf "read_trace failed: %s" msg

(* ---------- round trips ---------- *)

(* Payload values exactly representable in the lossy %.12g of schema 1,
   so both schemas round-trip them bit for bit. *)
let emit_sample sink =
  let open Obs in
  Sink.emit sink Run_start ~session:(Name.intern "maxflow") ~a:2.0 ~b:0.05;
  Sink.emit sink Iter_start ~session:0 ~a:1.0 ~b:0.0;
  Sink.emit sink Mst_recompute ~session:0 ~a:12.0 ~b:0.0;
  Sink.emit sink Iter_end ~session:0 ~a:1.0 ~b:0.25;
  Sink.emit sink Rescale ~session:(-1) ~a:1.5 ~b:0.0;
  Sink.emit sink Session_rate ~session:0 ~a:0.25 ~b:0.0;
  Sink.emit sink Run_end ~session:(Name.intern "maxflow") ~a:1.0 ~b:0.25;
  7

let check_sample_events ~schema (r : Obs_export.read_result) =
  checki "all events retained" 7 (Array.length r.Obs_export.r_events);
  checki "emitted" 7 r.Obs_export.r_emitted;
  checki "dropped" 0 r.Obs_export.r_dropped;
  checkb "no validation issues" true (r.Obs_export.r_issues = []);
  checkb "not truncated" false r.Obs_export.r_truncated;
  let e = r.Obs_export.r_events in
  checki "seq starts at 0" 0 e.(0).Obs.Event.seq;
  checki "seq contiguous" 6 e.(6).Obs.Event.seq;
  checkb "kinds in order" true
    (Array.to_list (Array.map (fun ev -> ev.Obs.Event.kind) e)
    = [
        Obs.Run_start; Obs.Iter_start; Obs.Mst_recompute; Obs.Iter_end;
        Obs.Rescale; Obs.Session_rate; Obs.Run_end;
      ]);
  checki (schema ^ ": interned name survives") (Obs.Name.intern "maxflow")
    e.(0).Obs.Event.session;
  checki "slot survives" (-1) e.(4).Obs.Event.session;
  checkf (schema ^ ": a payload bit-identical") 12.0 e.(2).Obs.Event.a;
  checkf (schema ^ ": b payload bit-identical") 0.05 e.(0).Obs.Event.b;
  let mono = ref true in
  Array.iteri
    (fun i ev ->
      if i > 0 && ev.Obs.Event.time < e.(i - 1).Obs.Event.time then mono := false)
    e;
  checkb "times non-decreasing" true !mono

let test_roundtrip_schema1 () =
  with_tmp (fun path ->
      let tr = Obs.Trace.create ~capacity:64 () in
      ignore (emit_sample (Obs.Trace.sink tr));
      Obs_export.trace_to_file path tr;
      let r = ok_exn (Obs_export.read_trace path) in
      checki "schema sniffed as 1" 1 r.Obs_export.r_schema;
      checkb "ring capacity reported" true (r.Obs_export.r_capacity = Some 64);
      check_sample_events ~schema:"schema1" r;
      (* schema-1 times go through %.12g: equal to ~1e-12 relative *)
      let ring = Array.of_list (Obs.Trace.events tr) in
      Array.iteri
        (fun i ev ->
          let dt = abs_float (ev.Obs.Event.time -. ring.(i).Obs.Event.time) in
          checkb "time round-trips within 1e-6" true (dt < 1e-6))
        r.Obs_export.r_events)

let test_roundtrip_schema2 () =
  with_tmp (fun path ->
      let witness = ref [] in
      let stream = Obs_stream.create path in
      let tee =
        Obs.Sink.make (fun kind ~session ~a ~b ->
            Obs.Sink.emit (Obs_stream.sink stream) kind ~session ~a ~b;
            witness := (kind, session, a, b) :: !witness)
      in
      (* awkward floats: the stream's %.12g→%.17g fallback must keep
         every bit, unlike schema 1 *)
      ignore (emit_sample tee);
      Obs.Sink.emit tee Obs.Iter_end ~session:1 ~a:8.0 ~b:0.1;
      Obs.Sink.emit tee Obs.Iter_end ~session:1 ~a:9.0 ~b:(1.0 /. 3.0);
      Obs.Sink.emit tee Obs.Iter_end ~session:1 ~a:10.0 ~b:1e-300;
      checki "emitted counts writes" 10 (Obs_stream.emitted stream);
      Obs_stream.close stream;
      Obs_stream.close stream (* idempotent *);
      checkb "emitting after close raises" true
        (try
           Obs.Sink.emit (Obs_stream.sink stream) Obs.Rescale ~session:0 ~a:0.0
             ~b:0.0;
           false
         with Invalid_argument _ -> true);
      let r = ok_exn (Obs_export.read_trace path) in
      checki "schema sniffed as 2" 2 r.Obs_export.r_schema;
      checkb "streams have no capacity" true (r.Obs_export.r_capacity = None);
      checki "footer emitted count" 10 r.Obs_export.r_emitted;
      checki "nothing dropped" 0 r.Obs_export.r_dropped;
      checkb "no validation issues" true (r.Obs_export.r_issues = []);
      let expected = Array.of_list (List.rev !witness) in
      checki "every event read back" (Array.length expected)
        (Array.length r.Obs_export.r_events);
      Array.iteri
        (fun i ev ->
          let kind, session, a, b = expected.(i) in
          checkb "kind" true (ev.Obs.Event.kind = kind);
          checki "session" session ev.Obs.Event.session;
          checkf "a bit-identical" a ev.Obs.Event.a;
          checkf "b bit-identical" b ev.Obs.Event.b;
          checki "seq contiguous from 0" i ev.Obs.Event.seq)
        r.Obs_export.r_events;
      (* explicit jsonl entry point agrees with the sniffer *)
      let r2 = ok_exn (Obs_export.read_trace_jsonl path) in
      checki "read_trace_jsonl agrees" (Array.length r.Obs_export.r_events)
        (Array.length r2.Obs_export.r_events))

let test_wraparound_read () =
  with_tmp (fun path ->
      let tr = Obs.Trace.create ~capacity:8 () in
      let sink = Obs.Trace.sink tr in
      for i = 0 to 19 do
        Obs.Sink.emit sink Obs.Iter_start ~session:i ~a:(float_of_int i) ~b:0.0
      done;
      Obs_export.trace_to_file path tr;
      let r = ok_exn (Obs_export.read_trace path) in
      checki "retained window" 8 (Array.length r.Obs_export.r_events);
      checki "emitted" 20 r.Obs_export.r_emitted;
      checki "dropped" 12 r.Obs_export.r_dropped;
      checkb "a wrapped ring is not an issue" true (r.Obs_export.r_issues = []);
      checki "first retained seq = dropped" 12
        r.Obs_export.r_events.(0).Obs.Event.seq;
      checki "last seq" 19 r.Obs_export.r_events.(7).Obs.Event.seq)

let test_reader_strictness () =
  let read_str content =
    with_tmp (fun path ->
        let oc = open_out path in
        output_string oc content;
        close_out oc;
        Obs_export.read_trace path)
  in
  (match read_str "not json at all" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed file accepted");
  (match read_str "{\"schema\":\"overlay-obs-trace/99\",\"events\":[]}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unsupported schema accepted");
  (* a truncated stream (no footer) parses with r_truncated set *)
  let truncated =
    "{\"schema\":\"overlay-obs-trace/2\"}\n\
     {\"seq\":0,\"t\":0.5,\"kind\":\"iter_start\",\"session\":0,\"a\":1,\"b\":0}\n"
  in
  (match read_str truncated with
  | Ok r ->
    checkb "missing footer -> truncated" true r.Obs_export.r_truncated;
    checki "events still parsed" 1 (Array.length r.Obs_export.r_events)
  | Error msg -> Alcotest.failf "truncated stream rejected: %s" msg);
  (* seq gaps, time regressions and unknown kinds are reported *)
  let anomalous =
    "{\"schema\":\"overlay-obs-trace/2\"}\n\
     {\"seq\":0,\"t\":1.0,\"kind\":\"iter_start\",\"session\":0,\"a\":1,\"b\":0}\n\
     {\"seq\":1,\"t\":0.5,\"kind\":\"bogus_kind\",\"session\":0,\"a\":0,\"b\":0}\n\
     {\"seq\":3,\"t\":0.6,\"kind\":\"iter_end\",\"session\":0,\"a\":1,\"b\":2}\n\
     {\"footer\":true,\"emitted\":3,\"dropped\":0}\n"
  in
  (match read_str anomalous with
  | Ok r ->
    checki "unknown kind excluded from events" 2
      (Array.length r.Obs_export.r_events);
    checkb "unknown kind reported" true
      (List.exists
         (fun m ->
           let has_sub sub =
             let n = String.length sub and ln = String.length m in
             let rec go i = i + n <= ln && (String.sub m i n = sub || go (i + 1)) in
             go 0
           in
           has_sub "bogus_kind")
         r.Obs_export.r_issues);
    checkb "seq gap and time regression reported" true
      (List.length r.Obs_export.r_issues >= 3)
  | Error msg -> Alcotest.failf "anomalous stream rejected outright: %s" msg)

(* Byte-level fixture corpus for the reader's error paths: structural
   failures must be Error, recoverable anomalies must land in r_issues
   with the events still usable. *)
let test_reader_error_corpus () =
  let read_str content =
    with_tmp (fun path ->
        let oc = open_out path in
        output_string oc content;
        close_out oc;
        Obs_export.read_trace path)
  in
  let issue_mentions r sub =
    List.exists
      (fun m ->
        let n = String.length sub and ln = String.length m in
        let rec go i = i + n <= ln && (String.sub m i n = sub || go (i + 1)) in
        go 0)
      r.Obs_export.r_issues
  in
  let expect_error ~what content =
    match read_str content with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s accepted" what
  in
  let expect_issue ~what ~mention content =
    match read_str content with
    | Error msg -> Alcotest.failf "%s rejected outright: %s" what msg
    | Ok r ->
      checkb
        (Printf.sprintf "%s reported (issues: %s)" what
           (String.concat " | " r.Obs_export.r_issues))
        true (issue_mentions r mention);
      r
  in
  (* schema 1: file truncated mid-JSON, at a byte offset inside the
     events array of a real capture *)
  with_tmp (fun path ->
      let tr = Obs.Trace.create ~capacity:64 () in
      ignore (emit_sample (Obs.Trace.sink tr));
      Obs_export.trace_to_file path tr;
      let whole =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      expect_error ~what:"file truncated mid-JSON"
        (String.sub whole 0 (String.length whole * 3 / 5)));
  (* schema 1: corrupted seq numbering *)
  let r =
    expect_issue ~what:"schema-1 seq gap" ~mention:"seq 5"
      "{\"schema\":\"overlay-obs-trace/1\",\"emitted\":2,\"dropped\":0,\"events\":[\
       {\"seq\":0,\"t\":1.0,\"kind\":\"iter_start\",\"session\":0,\"a\":1,\"b\":0},\
       {\"seq\":5,\"t\":2.0,\"kind\":\"iter_end\",\"session\":0,\"a\":1,\"b\":0}]}"
  in
  checki "both events kept despite the gap" 2 (Array.length r.Obs_export.r_events);
  (* schema 1: unknown kind is excluded but reported, and keeps its slot
     in the seq validation *)
  let r =
    expect_issue ~what:"schema-1 unknown kind" ~mention:"future_kind"
      "{\"schema\":\"overlay-obs-trace/1\",\"emitted\":3,\"dropped\":0,\"events\":[\
       {\"seq\":0,\"t\":1.0,\"kind\":\"iter_start\",\"session\":0,\"a\":1,\"b\":0},\
       {\"seq\":1,\"t\":1.5,\"kind\":\"future_kind\",\"session\":0,\"a\":0,\"b\":0},\
       {\"seq\":2,\"t\":2.0,\"kind\":\"iter_end\",\"session\":0,\"a\":1,\"b\":0}]}"
  in
  checki "unknown kind excluded" 2 (Array.length r.Obs_export.r_events);
  checkb "no spurious seq issue around the skipped kind" true
    (not (issue_mentions r "seq"));
  (* schema 1: envelope counters disagreeing with the payload *)
  ignore
    (expect_issue ~what:"schema-1 recorded mismatch" ~mention:"recorded=5"
       "{\"schema\":\"overlay-obs-trace/1\",\"emitted\":1,\"recorded\":5,\"dropped\":0,\"events\":[\
        {\"seq\":0,\"t\":1.0,\"kind\":\"iter_start\",\"session\":0,\"a\":1,\"b\":0}]}");
  ignore
    (expect_issue ~what:"schema-1 emitted mismatch" ~mention:"emitted=9"
       "{\"schema\":\"overlay-obs-trace/1\",\"emitted\":9,\"dropped\":0,\"events\":[\
        {\"seq\":0,\"t\":1.0,\"kind\":\"iter_start\",\"session\":0,\"a\":1,\"b\":0}]}");
  (* structural field failures are fatal, not issues *)
  let event_with fields =
    Printf.sprintf
      "{\"schema\":\"overlay-obs-trace/1\",\"emitted\":1,\"dropped\":0,\"events\":[{%s}]}"
      fields
  in
  expect_error ~what:"missing t field"
    (event_with "\"seq\":0,\"kind\":\"iter_start\",\"session\":0,\"a\":1,\"b\":0");
  expect_error ~what:"non-numeric a"
    (event_with
       "\"seq\":0,\"t\":1.0,\"kind\":\"iter_start\",\"session\":0,\"a\":\"x\",\"b\":0");
  expect_error ~what:"non-integer seq"
    (event_with
       "\"seq\":0.5,\"t\":1.0,\"kind\":\"iter_start\",\"session\":0,\"a\":1,\"b\":0");
  expect_error ~what:"missing name and session"
    (event_with "\"seq\":0,\"t\":1.0,\"kind\":\"iter_start\",\"a\":1,\"b\":0");
  (* schema 2: events after the footer *)
  ignore
    (expect_issue ~what:"schema-2 event after footer" ~mention:"after the footer"
       "{\"schema\":\"overlay-obs-trace/2\"}\n\
        {\"seq\":0,\"t\":1.0,\"kind\":\"iter_start\",\"session\":0,\"a\":1,\"b\":0}\n\
        {\"footer\":true,\"emitted\":1,\"dropped\":0}\n\
        {\"seq\":1,\"t\":2.0,\"kind\":\"iter_end\",\"session\":0,\"a\":1,\"b\":0}\n");
  (* schema 2: duplicate footer *)
  ignore
    (expect_issue ~what:"schema-2 duplicate footer" ~mention:"duplicate footer"
       "{\"schema\":\"overlay-obs-trace/2\"}\n\
        {\"seq\":0,\"t\":1.0,\"kind\":\"iter_start\",\"session\":0,\"a\":1,\"b\":0}\n\
        {\"footer\":true,\"emitted\":1,\"dropped\":0}\n\
        {\"footer\":true,\"emitted\":1,\"dropped\":0}\n");
  (* schema 2: footer count anomalies *)
  ignore
    (expect_issue ~what:"schema-2 footer emitted mismatch" ~mention:"emitted=7"
       "{\"schema\":\"overlay-obs-trace/2\"}\n\
        {\"seq\":0,\"t\":1.0,\"kind\":\"iter_start\",\"session\":0,\"a\":1,\"b\":0}\n\
        {\"footer\":true,\"emitted\":7,\"dropped\":0}\n");
  ignore
    (expect_issue ~what:"schema-2 footer without emitted"
       ~mention:"no emitted count"
       "{\"schema\":\"overlay-obs-trace/2\"}\n\
        {\"seq\":0,\"t\":1.0,\"kind\":\"iter_start\",\"session\":0,\"a\":1,\"b\":0}\n\
        {\"footer\":true}\n");
  (* schema 2: a structurally broken event line is fatal *)
  expect_error ~what:"schema-2 non-numeric t"
    "{\"schema\":\"overlay-obs-trace/2\"}\n\
     {\"seq\":0,\"t\":\"later\",\"kind\":\"iter_start\",\"session\":0,\"a\":1,\"b\":0}\n\
     {\"footer\":true,\"emitted\":1,\"dropped\":0}\n"

(* ---------- analysis on hand-built events ---------- *)

let ev seq time kind session a b = { Obs.Event.seq; time; kind; session; a; b }

(* A tiny fabricated run with known answers: 3 iterations routing
   1+2+3 = 6 flow, one rescale, one demand doubling, two final rates,
   objective 6.5 after 3.0 reported iterations. *)
let fabricated () =
  let n = Obs.Name.intern "fab" in
  [|
    ev 0 0.0 Obs.Run_start n 2.0 0.05;
    ev 1 0.1 Obs.Phase_start 0 1.0 0.0;
    ev 2 0.2 Obs.Iter_start 0 1.0 0.0;
    ev 3 0.3 Obs.Iter_end 0 1.0 1.0;
    ev 4 0.4 Obs.Rescale (-1) 2.5 0.0;
    ev 5 0.5 Obs.Iter_start 1 2.0 0.0;
    ev 6 0.7 Obs.Iter_end 1 2.0 2.0;
    ev 7 0.8 Obs.Demand_double 0 2.0 0.0;
    ev 8 0.9 Obs.Iter_start 0 3.0 0.0;
    ev 9 1.1 Obs.Iter_end 0 3.0 3.0;
    ev 10 1.2 Obs.Session_rate 0 4.0 0.0;
    ev 11 1.25 Obs.Session_rate 1 2.5 0.0;
    ev 12 1.3 Obs.Run_end n 3.0 6.5;
  |]

let test_kind_counts () =
  let counts = Analysis.kind_counts (fabricated ()) in
  let get k = try List.assoc k counts with Not_found -> 0 in
  checki "iter_start" 3 (get Obs.Iter_start);
  checki "iter_end" 3 (get Obs.Iter_end);
  checki "session_rate" 2 (get Obs.Session_rate);
  checki "absent kinds omitted" 0 (get Obs.Mst_recompute);
  checkb "sorted by wire name" true
    (let names = List.map (fun (k, _) -> Obs.kind_name k) counts in
     List.sort compare names = names)

let test_convergence_report () =
  let c = Analysis.convergence (fabricated ()) in
  checkb "run name" true (c.Analysis.run_name = Some "fab");
  checkb "session count" true (c.Analysis.n_sessions = Some 2);
  checkb "parameter" true (c.Analysis.parameter = Some 0.05);
  checki "iterations" 3 c.Analysis.iterations;
  checki "phases" 1 c.Analysis.phases;
  checki "points" 3 (Array.length c.Analysis.points);
  checkf "total flow" 6.0 c.Analysis.total_flow;
  checkb "objective" true (c.Analysis.final_objective = Some 6.5);
  checkb "run iterations" true (c.Analysis.run_iterations = Some 3.0);
  checki "rescales" 1 (Array.length c.Analysis.rescales);
  checki "demand doublings" 1 (Array.length c.Analysis.demand_doubles);
  checkf "duration" 1.3 c.Analysis.duration;
  let p = c.Analysis.points in
  checki "first point iteration" 1 p.(0).Analysis.iteration;
  checkf "first point flow" 1.0 p.(0).Analysis.flow;
  checkb "first dt measured from run_start" true
    (abs_float (p.(0).Analysis.dt -. 0.3) < 1e-12);
  checkb "second dt from previous iter_end" true
    (abs_float (p.(1).Analysis.dt -. 0.4) < 1e-12);
  checki "winning session of point 2" 1 p.(1).Analysis.session;
  checkb "final rates in slot order" true
    (c.Analysis.session_rates = [| (0, 4.0); (1, 2.5) |]);
  (* the rendering prints the objective in solve's %.2f format *)
  let txt = Analysis.render_convergence c in
  let has_sub sub s =
    let n = String.length sub and ln = String.length s in
    let rec go i = i + n <= ln && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  checkb "render prints objective: 6.50" true (has_sub "objective: 6.50" txt);
  let csv = Analysis.convergence_csv c in
  let lines = String.split_on_char '\n' (String.trim csv) in
  checki "csv: header + 3 points + 2 markers" 6 (List.length lines);
  checkb "csv header" true
    (List.hd lines = "kind,iteration,time,dt,session,value");
  checkb "csv rows keep trace order (rescale between points 1 and 2)" true
    (match lines with
    | _ :: l1 :: l2 :: _ ->
      has_sub "iter_end" l1 && has_sub "rescale" l2
    | _ -> false)

let test_span_profile () =
  let outer = Obs.Name.intern "fab.outer" in
  let inner = Obs.Name.intern "fab.inner" in
  let events =
    [|
      ev 0 0.0 Obs.Span_open outer 0.0 0.0;
      ev 1 0.1 Obs.Span_open inner 0.0 1.0;
      ev 2 0.4 Obs.Span_close inner 0.3 1.0;
      ev 3 0.5 Obs.Span_open inner 0.0 1.0;
      ev 4 0.6 Obs.Span_close inner 0.1 1.0;
      ev 5 1.0 Obs.Span_close outer 1.0 0.0;
    |]
  in
  let stats = Analysis.span_profile events in
  checki "two span names" 2 (List.length stats);
  let find name = List.find (fun s -> s.Analysis.span = name) stats in
  let o = find "fab.outer" and i = find "fab.inner" in
  checki "outer count" 1 o.Analysis.count;
  checki "inner count" 2 i.Analysis.count;
  checkb "outer total" true (abs_float (o.Analysis.total_s -. 1.0) < 1e-12);
  checkb "inner total" true (abs_float (i.Analysis.total_s -. 0.4) < 1e-12);
  checkb "outer self = total - direct children" true
    (abs_float (o.Analysis.self_s -. 0.6) < 1e-12);
  checkb "leaf self = leaf total" true
    (abs_float (i.Analysis.self_s -. i.Analysis.total_s) < 1e-12);
  checki "inner max depth" 1 i.Analysis.max_depth;
  checkb "sorted by total desc" true
    (match stats with s1 :: s2 :: _ -> s1.Analysis.total_s >= s2.Analysis.total_s | _ -> false);
  (* an orphan close (open lost to ring wraparound) still counts *)
  let orphan = Analysis.span_profile [| ev 0 0.5 Obs.Span_close inner 0.25 0.0 |] in
  (match orphan with
  | [ s ] ->
    checki "orphan close counted" 1 s.Analysis.count;
    checkb "orphan duration kept" true (abs_float (s.Analysis.total_s -. 0.25) < 1e-12)
  | _ -> Alcotest.fail "orphan close mishandled")

let test_mst_efficiency () =
  let events =
    [|
      ev 0 0.0 Obs.Mst_recompute 0 5.0 0.0;
      (* eager: 5 weight walks *)
      ev 1 0.1 Obs.Mst_recompute 0 3.0 1.0;
      (* lazy-bound run: 3 walks *)
      ev 2 0.2 Obs.Mst_lazy_skip 0 0.0 0.0;
      ev 3 0.3 Obs.Mst_lazy_skip 0 0.0 0.0;
      ev 4 0.4 Obs.Mst_recompute 1 7.0 0.0;
    |]
  in
  let r = Analysis.mst_efficiency events in
  checki "total recomputes" 3 r.Analysis.total_recomputes;
  checki "total lazy skips" 2 r.Analysis.total_lazy_skips;
  checki "total weight walks" 15 r.Analysis.total_weight_walks;
  checki "two sessions" 2 (Array.length r.Analysis.per_session);
  let s0 = r.Analysis.per_session.(0) in
  checki "s0 slot" 0 s0.Analysis.mst_session;
  checki "s0 recomputes" 2 s0.Analysis.recomputes;
  checki "s0 eager" 1 s0.Analysis.eager_runs;
  checki "s0 lazy runs" 1 s0.Analysis.lazy_runs;
  checki "s0 skips" 2 s0.Analysis.lazy_skips;
  checki "s0 walks" 8 s0.Analysis.weight_walks

let test_diff () =
  let a = fabricated () in
  let self = Analysis.diff a a in
  checkb "a trace diffs equal to itself" true self.Analysis.equal;
  checkb "counts equal" true self.Analysis.counts_equal;
  (* drop the last iteration: counts and objective drift *)
  let b = Array.sub a 0 (Array.length a - 5) in
  let d = Analysis.diff a b in
  checkb "shorter trace differs" false d.Analysis.equal;
  checkb "count deltas surface" false d.Analysis.counts_equal;
  (* same events, objective nudged: count-equal but drifting *)
  let c = Array.copy a in
  c.(12) <- ev 12 1.3 Obs.Run_end (Obs.Name.intern "fab") 3.0 6.6;
  let d2 = Analysis.diff a c in
  checkb "counts still equal" true d2.Analysis.counts_equal;
  checkb "objective drift breaks equality" false d2.Analysis.equal;
  let d3 = Analysis.diff ~obj_tol:0.1 a c in
  checkb "tolerance absorbs the drift" true d3.Analysis.equal

(* ---------- parallel streams ---------- *)

let suite =
  [
    Alcotest.test_case "schema-1 round trip" `Quick test_roundtrip_schema1;
    Alcotest.test_case "schema-2 stream round trip" `Quick test_roundtrip_schema2;
    Alcotest.test_case "ring-wraparound read" `Quick test_wraparound_read;
    Alcotest.test_case "reader strictness" `Quick test_reader_strictness;
    Alcotest.test_case "reader error-path corpus" `Quick
      test_reader_error_corpus;
    Alcotest.test_case "kind counts" `Quick test_kind_counts;
    Alcotest.test_case "convergence report" `Quick test_convergence_report;
    Alcotest.test_case "span profile" `Quick test_span_profile;
    Alcotest.test_case "mst efficiency" `Quick test_mst_efficiency;
    Alcotest.test_case "two-trace diff" `Quick test_diff;
  ]
