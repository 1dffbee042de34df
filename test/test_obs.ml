(* Tests for the telemetry layer (lib/obs): registry semantics, ring
   wraparound, span nesting, and the integration contract the solvers
   rely on — a traced MaxFlow run emits the documented event sequence
   and a no-op sink leaves the solver output bit-identical. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 0.0))  (* exact equality *)

(* --- names ------------------------------------------------------------ *)

let test_names () =
  let a = Obs.Name.intern "test_obs.alpha" in
  let b = Obs.Name.intern "test_obs.beta" in
  checkb "distinct strings get distinct ids" true (a <> b);
  checki "interning is idempotent" a (Obs.Name.intern "test_obs.alpha");
  Alcotest.(check string) "round trip" "test_obs.beta" (Obs.Name.to_string b);
  checkb "unknown id raises" true
    (try
       ignore (Obs.Name.to_string max_int);
       false
     with Invalid_argument _ -> true)

(* --- counters, gauges, registry --------------------------------------- *)

let test_counter_registry () =
  let c = Obs.Counter.make ~doc:"test counter" "test_obs.count" in
  let c' = Obs.Counter.make "test_obs.count" in
  checkb "make is idempotent by name (same cell)" true (c == c');
  Obs.Counter.reset c;
  Obs.Counter.incr c;
  Obs.Counter.add c 41;
  checki "incr + add accumulate" 42 (Obs.Counter.value c);
  checki "the alias sees the same tally" 42 (Obs.Counter.value c');
  checkb "negative delta raises" true
    (try
       Obs.Counter.add c (-1);
       false
     with Invalid_argument _ -> true);
  checki "failed add leaves the tally unchanged" 42 (Obs.Counter.value c);
  (match Obs.Registry.find_counter "test_obs.count" with
  | Some found -> checkb "find_counter returns the cell" true (found == c)
  | None -> Alcotest.fail "find_counter missed a registered counter");
  checkb "find_counter does not create" true
    (Obs.Registry.find_counter "test_obs.never_created" = None);
  let listed =
    List.filter (fun (n, _, _) -> n = "test_obs.count") (Obs.Registry.counters ())
  in
  (match listed with
  | [ (_, doc, v) ] ->
    Alcotest.(check string) "doc kept from first make" "test counter" doc;
    checki "registry reads the live value" 42 v
  | _ -> Alcotest.fail "registry listing missing/duplicated the counter");
  let names = List.map (fun (n, _, _) -> n) (Obs.Registry.counters ()) in
  checkb "registry listing is sorted" true (List.sort compare names = names);
  Obs.Counter.reset c;
  checki "reset zeroes" 0 (Obs.Counter.value c)

(* A counter bumped from several domains must equal the serial tally
   exactly: the tally is an Atomic. *)
let test_atomic_counter_totals () =
  let c = Obs.Counter.make "test_obs.atomic_counter" in
  Obs.Counter.reset c;
  for _i = 1 to 1000 do
    Obs.Counter.incr c
  done;
  let serial = Obs.Counter.value c in
  Obs.Counter.reset c;
  List.iter Domain.join
    (List.init 4 (fun _ ->
         Domain.spawn (fun () ->
             for _i = 1 to 250 do
               Obs.Counter.incr c
             done)));
  checki "parallel counter total matches serial" serial (Obs.Counter.value c);
  checki "counter total is exact" 1000 (Obs.Counter.value c)

let test_gauge () =
  let g = Obs.Gauge.make ~doc:"test gauge" "test_obs.gauge" in
  checkb "make is idempotent by name" true (g == Obs.Gauge.make "test_obs.gauge");
  Obs.Gauge.set g 1.5;
  Obs.Gauge.set g 2.5;
  checkf "last write wins" 2.5 (Obs.Gauge.value g);
  checkb "listed in the registry" true
    (List.exists (fun (n, _, v) -> n = "test_obs.gauge" && v = 2.5)
       (Obs.Registry.gauges ()))

let test_debug_flags () =
  let f = Obs.Debug_flags.register ~env:"TEST_OBS_FLAG" ~doc:"test flag"
      "test_obs.flag"
  in
  checkb "register is idempotent" true
    (f == Obs.Debug_flags.register ~env:"TEST_OBS_FLAG" "test_obs.flag");
  checkb "unset env leaves the flag off" false (Obs.Debug_flags.enabled f);
  Obs.Debug_flags.set f true;
  checkb "set flips it" true (Obs.Debug_flags.enabled f);
  Obs.Debug_flags.set f false;
  checkb "listed with env name" true
    (List.exists
       (fun (n, env, _, _) -> n = "test_obs.flag" && env = "TEST_OBS_FLAG")
       (Obs.Debug_flags.all ()));
  (* the overlay cross-check flag moved into this table (was a bare
     getenv): it must be discoverable and wired to Overlay's toggle *)
  checkb "overlay.cross_check is registered" true
    (List.exists (fun (n, _, _, _) -> n = "overlay.cross_check")
       (Obs.Debug_flags.all ()));
  let was = Overlay.cross_check_enabled () in
  Overlay.set_cross_check (not was);
  checkb "Overlay.set_cross_check drives the flag" (not was)
    (Overlay.cross_check_enabled ());
  Overlay.set_cross_check was

(* --- clock and kinds --------------------------------------------------- *)

let test_clock_monotone () =
  let prev = ref (Obs.now ()) in
  for _ = 1 to 1000 do
    let t = Obs.now () in
    if t < !prev then Alcotest.fail "Obs.now went backwards";
    prev := t
  done

let all_kinds =
  [
    Obs.Run_start; Obs.Run_end; Obs.Iter_start; Obs.Iter_end; Obs.Phase_start;
    Obs.Phase_end; Obs.Demand_double; Obs.Rescale; Obs.Mst_recompute;
    Obs.Mst_lazy_skip; Obs.Session_rate; Obs.Span_open; Obs.Span_close;
  ]

let test_kind_names () =
  List.iter
    (fun k ->
      match Obs.kind_of_name (Obs.kind_name k) with
      | Some k' -> checkb ("round trip " ^ Obs.kind_name k) true (k = k')
      | None -> Alcotest.fail ("kind_of_name missed " ^ Obs.kind_name k))
    all_kinds;
  checkb "unknown wire name" true (Obs.kind_of_name "no_such_kind" = None)

(* --- ring buffer -------------------------------------------------------- *)

let test_ring_wraparound () =
  let t = Obs.Trace.create ~capacity:8 () in
  let sink = Obs.Trace.sink t in
  checkb "trace sink is enabled" true (Obs.Sink.enabled sink);
  for i = 0 to 19 do
    Obs.Sink.emit sink Obs.Iter_start ~session:i ~a:(float_of_int i) ~b:0.0
  done;
  checki "capacity" 8 (Obs.Trace.capacity t);
  checki "emitted counts everything" 20 (Obs.Trace.emitted t);
  checki "recorded is bounded by capacity" 8 (Obs.Trace.recorded t);
  checki "dropped = emitted - capacity" 12 (Obs.Trace.dropped t);
  let events = Obs.Trace.events t in
  checki "events returns the retained window" 8 (List.length events);
  List.iteri
    (fun j (e : Obs.Event.t) ->
      checki "seq stays the global emission index" (12 + j) e.Obs.Event.seq;
      checki "payload survived the wrap" (12 + j) e.Obs.Event.session;
      checkf "a payload" (float_of_int (12 + j)) e.Obs.Event.a)
    events;
  let times = List.map (fun (e : Obs.Event.t) -> e.Obs.Event.time) events in
  checkb "timestamps non-decreasing" true
    (List.sort compare times = times);
  Obs.Trace.clear t;
  checki "clear resets emitted" 0 (Obs.Trace.emitted t);
  checki "clear keeps capacity" 8 (Obs.Trace.capacity t);
  checkb "clear empties the window" true (Obs.Trace.events t = []);
  (* the ring keeps recording after a clear *)
  Obs.Sink.emit sink Obs.Rescale ~session:(-1) ~a:1.0 ~b:0.0;
  checki "recording resumes from seq 0" 0
    (match Obs.Trace.events t with
    | [ e ] -> e.Obs.Event.seq
    | _ -> -1)

let test_trace_create_validation () =
  checkb "non-positive capacity raises" true
    (try
       ignore (Obs.Trace.create ~capacity:0 ());
       false
     with Invalid_argument _ -> true)

(* --- spans -------------------------------------------------------------- *)

let test_span_nesting () =
  let t = Obs.Trace.create ~capacity:16 () in
  let sink = Obs.Trace.sink t in
  let outer = Obs.Span.make "test_obs.outer" in
  let inner = Obs.Span.make "test_obs.inner" in
  Alcotest.(check string) "span name round trip" "test_obs.outer"
    (Obs.Span.name outer);
  let v =
    Obs.Span.with_ sink outer (fun () ->
        Obs.Span.with_ sink inner (fun () -> 7))
  in
  checki "with_ returns the body's value" 7 v;
  (match Obs.Trace.events t with
  | [ o1; o2; c2; c1 ] ->
    checkb "outer open" true (o1.Obs.Event.kind = Obs.Span_open);
    checki "outer open names the span" (Obs.Name.intern "test_obs.outer")
      o1.Obs.Event.session;
    checkf "outer opens at depth 0" 0.0 o1.Obs.Event.b;
    checkf "inner opens at depth 1" 1.0 o2.Obs.Event.b;
    checkb "inner closes first" true
      (c2.Obs.Event.kind = Obs.Span_close
      && c2.Obs.Event.session = Obs.Name.intern "test_obs.inner");
    checkf "inner closes back to depth 1" 1.0 c2.Obs.Event.b;
    checkf "outer closes back to depth 0" 0.0 c1.Obs.Event.b;
    checkb "durations are non-negative" true
      (c1.Obs.Event.a >= 0.0 && c2.Obs.Event.a >= 0.0);
    checkb "outer lasted at least as long as inner" true
      (c1.Obs.Event.a >= c2.Obs.Event.a)
  | evs ->
    Alcotest.failf "expected 4 span events, got %d" (List.length evs));
  (* a raising body still closes its span *)
  (try
     Obs.Span.with_ sink outer (fun () -> failwith "boom")
   with Failure _ -> ());
  let closes =
    List.filter
      (fun (e : Obs.Event.t) -> e.Obs.Event.kind = Obs.Span_close)
      (Obs.Trace.events t)
  in
  checki "span closed despite the exception" 3 (List.length closes)

(* --- custom sinks ------------------------------------------------------- *)

let test_custom_sink () =
  let seen = ref [] in
  let sink =
    Obs.Sink.make (fun kind ~session ~a ~b -> seen := (kind, session, a, b) :: !seen)
  in
  checkb "make is enabled" true (Obs.Sink.enabled sink);
  Obs.Sink.emit sink Obs.Rescale ~session:3 ~a:1.0 ~b:2.0;
  checkb "consumer saw the event" true (!seen = [ (Obs.Rescale, 3, 1.0, 2.0) ]);
  checkb "null sink is disabled" false (Obs.Sink.enabled Obs.Sink.null);
  Obs.Sink.emit Obs.Sink.null Obs.Rescale ~session:0 ~a:0.0 ~b:0.0

(* --- integration: MaxFlow emits the documented sequence ------------------ *)

let small_instance () =
  let rng = Rng.create 7 in
  let topo = Waxman.generate rng { Waxman.default_params with Waxman.n = 30 } in
  let g = topo.Topology.graph in
  let mk id size =
    Session.random rng ~id ~topology_size:(Topology.n_nodes topo) ~size
      ~demand:10.0
  in
  (g, [| mk 0 5; mk 1 4 |])

let overlays_of g sessions = Array.map (fun s -> Overlay.create g Overlay.Ip s) sessions

let test_maxflow_trace () =
  let g, sessions = small_instance () in
  let tr = Obs.Trace.create () in
  let r =
    Max_flow.solve ~obs:(Obs.Trace.sink tr) g (overlays_of g sessions)
      ~epsilon:0.05
  in
  checki "nothing dropped on a small run" 0 (Obs.Trace.dropped tr);
  let events = Obs.Trace.events tr in
  checkb "trace is non-empty" true (events <> []);
  let maxflow = Obs.Name.intern "maxflow" in
  (match events with
  | first :: _ ->
    checkb "first event is run_start" true (first.Obs.Event.kind = Obs.Run_start);
    checki "run_start names the solver" maxflow first.Obs.Event.session;
    checkf "run_start carries the session count" 2.0 first.Obs.Event.a;
    checkf "run_start carries epsilon" 0.05 first.Obs.Event.b
  | [] -> Alcotest.fail "empty trace");
  (match List.rev events with
  | last :: _ ->
    checkb "last event is run_end" true (last.Obs.Event.kind = Obs.Run_end);
    checki "run_end names the solver" maxflow last.Obs.Event.session;
    checkf "run_end reports the iteration count"
      (float_of_int r.Max_flow.iterations)
      last.Obs.Event.a
  | [] -> ());
  let count k =
    List.length (List.filter (fun (e : Obs.Event.t) -> e.Obs.Event.kind = k) events)
  in
  checki "one iter_start per iteration" r.Max_flow.iterations
    (count Obs.Iter_start);
  checkb "iter_end matches iter_start (±1 for a degenerate last step)" true
    (let starts = count Obs.Iter_start and ends = count Obs.Iter_end in
     ends = starts || ends = starts - 1);
  checki "one session_rate per slot" 2 (count Obs.Session_rate);
  checki "every MST call traced as recompute or lazy skip"
    r.Max_flow.mst_operations
    (count Obs.Mst_recompute + count Obs.Mst_lazy_skip);
  List.iteri
    (fun j (e : Obs.Event.t) -> checki "seq is contiguous from 0" j e.Obs.Event.seq)
    events;
  let times = List.map (fun (e : Obs.Event.t) -> e.Obs.Event.time) events in
  checkb "timestamps non-decreasing" true (List.sort compare times = times);
  (* per-session rates reported in the trace equal the solution's *)
  List.iter
    (fun (e : Obs.Event.t) ->
      if e.Obs.Event.kind = Obs.Session_rate then
        checkf
          (Printf.sprintf "session_rate slot %d" e.Obs.Event.session)
          (Solution.session_rate r.Max_flow.solution e.Obs.Event.session)
          e.Obs.Event.a)
    events

let test_noop_sink_bit_identical () =
  let g, sessions = small_instance () in
  let tr = Obs.Trace.create () in
  let traced =
    Max_flow.solve ~obs:(Obs.Trace.sink tr) g (overlays_of g sessions)
      ~epsilon:0.05
  in
  let plain = Max_flow.solve g (overlays_of g sessions) ~epsilon:0.05 in
  checki "same iteration count" plain.Max_flow.iterations
    traced.Max_flow.iterations;
  checki "same MST operation count" plain.Max_flow.mst_operations
    traced.Max_flow.mst_operations;
  checkb "bit-identical per-session rates" true
    (Solution.rates plain.Max_flow.solution
    = Solution.rates traced.Max_flow.solution);
  checkb "bit-identical per-session (tree, rate) lists" true
    (Solution.equal plain.Max_flow.solution traced.Max_flow.solution)

let test_mcf_trace_spans () =
  let g, sessions = small_instance () in
  let tr = Obs.Trace.create () in
  let r =
    Max_concurrent_flow.solve ~obs:(Obs.Trace.sink tr) g
      (overlays_of g sessions) ~epsilon:0.05
      ~scaling:Max_concurrent_flow.Maxflow_weighted
  in
  let events = Obs.Trace.events tr in
  let count k =
    List.length (List.filter (fun (e : Obs.Event.t) -> e.Obs.Event.kind = k) events)
  in
  let span_named name =
    List.exists
      (fun (e : Obs.Event.t) ->
        e.Obs.Event.kind = Obs.Span_open
        && e.Obs.Event.session = Obs.Name.intern name)
      events
  in
  checkb "preprocess span present" true (span_named "mcf.preprocess");
  checkb "main span present" true (span_named "mcf.main");
  checki "spans are balanced" (count Obs.Span_open) (count Obs.Span_close);
  checki "one phase_start per phase" r.Max_concurrent_flow.phases
    (count Obs.Phase_start);
  checki "phases are bracketed" (count Obs.Phase_start) (count Obs.Phase_end);
  (* nested MaxFlow preprocessing emits its own run pairs: 2 sessions
     + the outer mcf run = 3 run_start/run_end pairs *)
  checki "nested runs traced" 3 (count Obs.Run_start);
  checki "run pairs balanced" (count Obs.Run_start) (count Obs.Run_end)

let suite =
  [
    Alcotest.test_case "interned names" `Quick test_names;
    Alcotest.test_case "counter registry semantics" `Quick test_counter_registry;
    Alcotest.test_case "atomic counter totals match serial" `Quick
      test_atomic_counter_totals;
    Alcotest.test_case "gauge semantics" `Quick test_gauge;
    Alcotest.test_case "debug flags" `Quick test_debug_flags;
    Alcotest.test_case "monotonic clock" `Quick test_clock_monotone;
    Alcotest.test_case "kind wire names" `Quick test_kind_names;
    Alcotest.test_case "ring-buffer wraparound" `Quick test_ring_wraparound;
    Alcotest.test_case "trace validation" `Quick test_trace_create_validation;
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "custom sinks" `Quick test_custom_sink;
    Alcotest.test_case "maxflow event sequence" `Quick test_maxflow_trace;
    Alcotest.test_case "no-op sink output bit-identical" `Quick
      test_noop_sink_bit_identical;
    Alcotest.test_case "mcf spans and phases" `Quick test_mcf_trace_spans;
  ]
