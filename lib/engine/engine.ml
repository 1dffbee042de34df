type solver =
  | Maxflow
  | Mcf of {
      variant : Max_concurrent_flow.variant;
      scaling : Max_concurrent_flow.demand_scaling;
    }

type config = {
  epsilon : float;
  solver : solver;
  mode : Overlay.mode;
  sparsify : Sparsify.t;
  certify_tol : float;
  obs : Obs.Sink.t;
}

let default_config =
  {
    epsilon = 0.05;
    solver = Maxflow;
    mode = Overlay.Ip;
    sparsify = Sparsify.full;
    certify_tol = Check.default_tol;
    obs = Obs.Sink.null;
  }

type run =
  | Run_maxflow of Max_flow.result
  | Run_mcf of Max_concurrent_flow.result

type report = {
  event : Churn.event option;
  at : float;
  k : int;
  warm : bool;
  attempts : int;
  certified : bool;
  objective : float;
  solve_s : float;
  certify_s : float;
  total_s : float;
}

type t = {
  graph : Graph.t;
  config : config;
  mutable sessions : Session.t array;
  mutable overlays : Overlay.t array;
  mutable zetas : float array; (* parallel to [sessions]; Mcf only *)
  mutable duals : float array; (* engine-owned copy of the last accepted run *)
  mutable have_duals : bool;
  mutable last : run option;
  mutable resolves : int;
  mutable warm_accepted : int;
  mutable cold_solves : int;
}

let resolve_span = Obs.Span.make "engine.resolve"

let c_events =
  Obs.Counter.make ~doc:"churn events applied by the re-solve engine"
    "engine.events"

let c_warm = Obs.Counter.make ~doc:"warm re-solves accepted" "engine.warm"

let c_cold =
  Obs.Counter.make ~doc:"cold (from-scratch) solves, incl. fallbacks"
    "engine.cold"

(* --- latency distributions -------------------------------------------- *)

let h_resolve =
  Obs.Histogram.make
    ~doc:"end-to-end re-solve latency per churn event (seconds)"
    "engine.resolve_s"

let h_rung_depth =
  Obs.Histogram.make
    ~doc:
      "rooms-ladder depth per re-solve (warm rungs tried; a cold solve \
       counts as one rung past the failed ladder)"
    "engine.rung_depth"

let h_certify =
  Obs.Histogram.make ~doc:"certification time per re-solve (seconds)"
    "engine.certify_s"

(* Wire codes for the churn event types, carried in [Event_start.a] and
   used to index the per-kind latency histograms.  [lib/analysis] keeps
   an identical table (it sits below [core] and cannot see [Churn]);
   test_engine_trace pins the two against each other. *)
let event_code = function
  | Churn.Session_join _ -> 0
  | Churn.Session_leave _ -> 1
  | Churn.Demand_change _ -> 2
  | Churn.Capacity_change _ -> 3

let initial_code = 4

let event_subject = function
  | Churn.Session_join { id; _ }
  | Churn.Session_leave { id }
  | Churn.Demand_change { id; _ } ->
    id
  | Churn.Capacity_change { edge; _ } -> edge

(* engine.resolve_<kind>_<warm|cold>_s: per-event-kind latency split by
   whether the warm path was accepted *)
let h_latency =
  Array.map
    (fun kind ->
      Array.map
        (fun path ->
          Obs.Histogram.make
            ~doc:
              (Printf.sprintf
                 "re-solve latency of %s events on the %s path (seconds)" kind
                 path)
            (Printf.sprintf "engine.resolve_%s_%s_s" kind path))
        [| "cold"; "warm" |])
    [| "join"; "leave"; "demand"; "capacity" |]

let record_latency ~code ~warm total_s =
  Obs.Histogram.record h_resolve total_s;
  if code >= 0 && code < Array.length h_latency then
    Obs.Histogram.record h_latency.(code).(if warm then 1 else 0) total_s

(* --- instance mutation ------------------------------------------------ *)

let index_of_id t id =
  let n = Array.length t.sessions in
  let rec go i =
    if i >= n then None
    else if t.sessions.(i).Session.id = id then Some i
    else go (i + 1)
  in
  go 0

let remove_at arr i =
  Array.init
    (Array.length arr - 1)
    (fun j -> if j < i then arr.(j) else arr.(j + 1))

let append arr x = Array.append arr [| x |]

(* Dual repair on a capacity change: only the touched edge is
   re-initialized; every other dual keeps its shape.  The repaired
   value is a heuristic (the certificate gates correctness): keep
   [c_e d_e] continuous when both capacities are positive, and give a
   newly capacitated edge the congestion price of the cheapest
   existing edge.  A cut edge (c_new = 0) can never carry flow: both
   solvers price it at +infinity, so warm trees route around it. *)
let repair_capacity t ~edge ~c_old ~c_new =
  let lens = t.duals in
  match t.config.solver with
  | Maxflow ->
    if c_new <= 0.0 then lens.(edge) <- infinity
    else if c_old > 0.0 then lens.(edge) <- lens.(edge) *. (c_old /. c_new)
    else begin
      let mn = ref infinity in
      Array.iter (fun v -> if v < !mn then mn := v) lens;
      lens.(edge) <- (if Float.is_finite !mn then !mn else 1.0)
    end
  | Mcf _ ->
    if c_new <= 0.0 then lens.(edge) <- infinity
    else if c_old > 0.0 && Float.is_finite lens.(edge) then
      lens.(edge) <- lens.(edge) *. (c_old /. c_new)
    else begin
      let p = ref infinity in
      for e = 0 to Array.length lens - 1 do
        let c = Graph.capacity t.graph e in
        if e <> edge && c > 0.0 && Float.is_finite lens.(e) then
          p := Float.min !p (c *. lens.(e))
      done;
      lens.(edge) <-
        (if Float.is_finite !p then !p /. c_new else 1.0 /. c_new)
    end

(* --- solving ---------------------------------------------------------- *)

(* The warm-start room ladder, in nats, tried in order until the
   certificate passes.  A rung's room is its upper bound: the rung may
   end earlier on its own certificate.  The ladder is progressive:
   each failed rung's final duals seed the next rung, so dual repair
   accumulates while every rung's primal restarts clean. *)
let rooms = [| 2.0; 8.0; 32.0 |]

(* The dynamic range, in nats, the first rung's inherited dual shape
   keeps: entries below [exp (-clamp) * max] are floored (see
   [clamp_range]).  Each later rung inherits half the range of the
   rung before it. *)
let clamp = 8.0

(* Bound the dynamic range of an inherited dual shape to [clamp] nats
   (floor at [exp (-clamp) * max]).  After an event that opens new
   territory — a join whose members reach edges the previous instance
   never priced — those edges sit tens of nats below the active
   structure, and a warm run would spend its whole budget inflating
   them before the surviving sessions see a single iteration.  The
   floor compresses dead territory to "cheap" while preserving the
   top-of-range bottleneck ordering that warm starts exist to reuse.
   Infinite entries (zero-capacity edges) are left alone.

   Why each failed rung halves the range it hands on: a warm
   Garg-Koenemann run's certificate ratio is roughly L / (L + D), where
   L is the nats of dual growth the run gets (its room) and D is how
   far an edge that must now carry flow sits below its new price in
   the inherited shape.  The clamp caps D.  A failed rung shows that D
   was too large for its room, so the next rung, with four times the
   room, starts from the failed rung's duals floored at half the range
   that rung inherited: 8 nats for rung 0, then 4, then 2.  D / L falls
   8x per rung. *)
let clamp_range ~clamp lens =
  let mx = ref 0.0 in
  Array.iter (fun v -> if Float.is_finite v && v > !mx then mx := v) lens;
  if !mx <= 0.0 then lens
  else begin
    let lo = exp (-.clamp) *. !mx in
    Array.map (fun v -> if v < lo then lo else v) lens
  end

let run_solver t ~warm =
  let { epsilon; obs; _ } = t.config in
  match t.config.solver with
  | Maxflow ->
    let warm_start =
      match warm with
      | Some (prev_lens, room) ->
        Some { Max_flow.prev_lens; room }
      | None -> None
    in
    (* every solver run, warm or cold, stops on its own certificate;
       [certify_run] still gates what the engine accepts *)
    Run_maxflow
      (Max_flow.solve ~obs ?warm_start ~stop:Max_flow.Certificate t.graph
         t.overlays ~epsilon)
  | Mcf { variant; scaling } ->
    let warm_start =
      match warm with
      | Some (prev_lens, room) ->
        Some { Max_concurrent_flow.prev_lens; room }
      | None -> None
    in
    let warm_zetas =
      (* reuse the per-session max-flow rates whenever they are current
         for the active session set — they are maintained through every
         event, so this only falls through on the initial solve *)
      if Array.length t.zetas = Array.length t.overlays then Some t.zetas
      else None
    in
    Run_mcf
      (Max_concurrent_flow.solve ~variant ~obs ?warm_start ?warm_zetas
         ~stop:Max_flow.Certificate t.graph t.overlays ~epsilon ~scaling)

let certify_run t run =
  match run with
  | Run_maxflow r ->
    Check.certify_max_flow ~tol:t.config.certify_tol t.graph t.overlays r
  | Run_mcf r ->
    let scaling =
      match t.config.solver with
      | Mcf { scaling; _ } -> scaling
      | Maxflow -> assert false
    in
    Check.certify_mcf ~tol:t.config.certify_tol t.graph t.overlays ~scaling r

let objective_of = function
  | Run_maxflow r -> Solution.overall_throughput r.Max_flow.solution
  | Run_mcf r -> Solution.concurrent_ratio r.Max_concurrent_flow.solution

let duals_of = function
  | Run_maxflow r -> r.Max_flow.dual_lengths
  | Run_mcf r -> r.Max_concurrent_flow.dual_lengths

(* Check's achieved ratio, primal / dual bound, per warm rung index
   and per cold solve: how close each attempt came to its claim *)
let h_rung_achieved =
  Array.init (Array.length rooms) (fun i ->
      Obs.Histogram.make
        ~doc:
          (Printf.sprintf
             "Check's achieved ratio (primal / dual bound) of warm rung %d" i)
        (Printf.sprintf "engine.rung_achieved_%d" i))

let h_cold_achieved =
  Obs.Histogram.make
    ~doc:"Check's achieved ratio (primal / dual bound) of each cold solve"
    "engine.cold_achieved"

(* 0, the histograms' zero bucket, when the verdict has no usable bound *)
let achieved (v : Check.verdict) =
  match (v.Check.primal, v.Check.dual_bound) with
  | Some p, Some d when Float.is_finite d && d > 0.0 -> p /. d
  | _ -> 0.0

let accept t run =
  (match run with
  | Run_maxflow r -> t.duals <- Array.copy r.Max_flow.dual_lengths
  | Run_mcf r ->
    t.duals <- Array.copy r.Max_concurrent_flow.dual_lengths;
    t.zetas <- Array.copy r.Max_concurrent_flow.zetas);
  t.have_duals <- true;
  t.last <- Some run

let resolve t =
  t.resolves <- t.resolves + 1;
  let obs = t.config.obs in
  let t_open = Obs.Span.enter obs resolve_span in
  let k = Array.length t.overlays in
  let finish ~warm ~attempts ~certified ~objective ~solve_s ~certify_s =
    Obs.Span.exit obs resolve_span t_open;
    {
      event = None;
      at = 0.0;
      k;
      warm;
      attempts;
      certified;
      objective;
      solve_s;
      certify_s;
      total_s = solve_s +. certify_s;
    }
  in
  if k = 0 then begin
    (* no active sessions: nothing to solve; the duals are kept — they
       still describe the network and warm-start the next join *)
    t.last <- None;
    finish ~warm:false ~attempts:0 ~certified:true ~objective:0.0 ~solve_s:0.0
      ~certify_s:0.0
  end
  else begin
    let attempts = ref 0 in
    let accepted = ref None in
    let solve_s = ref 0.0 and certify_s = ref 0.0 in
    if t.have_duals then begin
      (* Progressive certificate-gated ladder: rung [i] warm-starts
         from rung [i-1]'s final duals, so a failed attempt is not
         wasted — its dual repair carries into the next rung while the
         primal restarts clean (the early mass a repairing run routes
         in a stale direction would otherwise dilute the measured
         objective forever).  Those duals keep half the range rung
         [i-1] inherited (see [clamp_range]). *)
      let warm_lens = ref (clamp_range ~clamp t.duals) in
      let i = ref 0 in
      while !accepted = None && !i < Array.length rooms do
        incr attempts;
        let t0 = Obs.now () in
        let run = run_solver t ~warm:(Some (!warm_lens, rooms.(!i))) in
        let t1 = Obs.now () in
        let verdict = certify_run t run in
        let t2 = Obs.now () in
        solve_s := !solve_s +. (t1 -. t0);
        certify_s := !certify_s +. (t2 -. t1);
        let ok = Check.ok verdict in
        Obs.Histogram.record h_rung_achieved.(!i) (achieved verdict);
        Obs.Sink.emit obs Obs.Rung_attempt ~session:!i ~a:rooms.(!i)
          ~b:(if ok then 1.0 else 0.0);
        if ok then accepted := Some run
        else begin
          Obs.Sink.emit obs Obs.Certify_fail ~session:!i ~a:rooms.(!i)
            ~b:(float_of_int (List.length verdict.Check.violations));
          warm_lens :=
            clamp_range
              ~clamp:(Float.ldexp clamp (-(!i + 1)))
              (duals_of run)
        end;
        incr i
      done
    end;
    match !accepted with
    | Some run ->
      accept t run;
      t.warm_accepted <- t.warm_accepted + 1;
      Obs.Counter.incr c_warm;
      Obs.Histogram.record h_rung_depth (float_of_int !attempts);
      Obs.Histogram.record h_certify !certify_s;
      finish ~warm:true ~attempts:!attempts ~certified:true
        ~objective:(objective_of run) ~solve_s:!solve_s ~certify_s:!certify_s
    | None ->
      (* cold fallback (or initial solve): unconditional acceptance —
         this is exactly what a from-scratch caller would have run *)
      Obs.Sink.emit obs Obs.Cold_fallback ~session:(-1)
        ~a:(float_of_int !attempts) ~b:0.0;
      let t0 = Obs.now () in
      let run = run_solver t ~warm:None in
      let t1 = Obs.now () in
      let verdict = certify_run t run in
      let t2 = Obs.now () in
      solve_s := !solve_s +. (t1 -. t0);
      certify_s := !certify_s +. (t2 -. t1);
      Obs.Histogram.record h_cold_achieved (achieved verdict);
      accept t run;
      t.cold_solves <- t.cold_solves + 1;
      Obs.Counter.incr c_cold;
      let certified = Check.ok verdict in
      if not certified then
        Obs.Sink.emit obs Obs.Certify_fail ~session:(-1) ~a:0.0
          ~b:(float_of_int (List.length verdict.Check.violations));
      Obs.Histogram.record h_rung_depth (float_of_int (!attempts + 1));
      Obs.Histogram.record h_certify !certify_s;
      finish ~warm:false ~attempts:!attempts ~certified
        ~objective:(objective_of run) ~solve_s:!solve_s ~certify_s:!certify_s
  end

(* --- lifecycle -------------------------------------------------------- *)

let create ?(config = default_config) graph sessions =
  let overlays =
    Array.map
      (fun s -> Overlay.create ~sparsify:config.sparsify graph config.mode s)
      sessions
  in
  let t =
    {
      graph;
      config;
      sessions = Array.copy sessions;
      overlays;
      zetas = [||];
      duals = [||];
      have_duals = false;
      last = None;
      resolves = 0;
      warm_accepted = 0;
      cold_solves = 0;
    }
  in
  if Array.length sessions > 0 then begin
    (* the initial solve traces like a churn event of its own kind so a
       capture reconstructs the whole engine lifetime *)
    let t_start = Obs.now () in
    Obs.Sink.emit config.obs Obs.Event_start ~session:(-1)
      ~a:(float_of_int initial_code) ~b:0.0;
    let r = resolve t in
    let total_s = Obs.now () -. t_start in
    Obs.Histogram.record h_resolve total_s;
    Obs.Sink.emit config.obs Obs.Event_end ~session:(-1) ~a:total_s
      ~b:(if r.warm then 1.0 else 0.0)
  end;
  t

let apply t (te : Churn.timed) =
  Obs.Counter.incr c_events;
  let code = event_code te.Churn.event in
  let subject = event_subject te.Churn.event in
  let t_start = Obs.now () in
  Obs.Sink.emit t.config.obs Obs.Event_start ~session:subject
    ~a:(float_of_int code) ~b:te.Churn.at;
  (match te.Churn.event with
  | Churn.Session_join { id; members; demand } ->
    (match index_of_id t id with
    | Some _ ->
      invalid_arg
        (Printf.sprintf "Engine.apply: session %d is already active" id)
    | None -> ());
    let session = Session.create ~id ~members ~demand in
    let overlay =
      Overlay.create ~sparsify:t.config.sparsify t.graph t.config.mode session
    in
    t.sessions <- append t.sessions session;
    t.overlays <- append t.overlays overlay;
    (match t.config.solver with
    | Maxflow -> ()
    | Mcf _ ->
      (* only the joined session's standalone rate is missing *)
      let zeta, _ =
        Max_flow.solve_single ~stop:Max_flow.Certificate t.graph overlay
          ~epsilon:t.config.epsilon
      in
      t.zetas <- append t.zetas zeta)
  | Churn.Session_leave { id } -> (
    match index_of_id t id with
    | None ->
      invalid_arg (Printf.sprintf "Engine.apply: session %d is not active" id)
    | Some i ->
      t.sessions <- remove_at t.sessions i;
      t.overlays <- remove_at t.overlays i;
      if Array.length t.zetas > i then t.zetas <- remove_at t.zetas i)
  | Churn.Demand_change { id; demand } -> (
    match index_of_id t id with
    | None ->
      invalid_arg (Printf.sprintf "Engine.apply: session %d is not active" id)
    | Some i ->
      let s = t.sessions.(i) in
      let s' = Session.create ~id:s.Session.id ~members:s.Session.members ~demand in
      t.sessions.(i) <- s';
      (* same member set: the routing state (route table, incidence
         index, CSR views) is reused wholesale *)
      t.overlays.(i) <- Overlay.with_session t.overlays.(i) s')
  | Churn.Capacity_change { edge; capacity } ->
    if edge < 0 || edge >= Graph.n_edges t.graph then
      invalid_arg "Engine.apply: capacity change on an unknown edge";
    if Float.is_nan capacity || capacity < 0.0 then
      invalid_arg "Engine.apply: negative capacity";
    let c_old = Graph.capacity t.graph edge in
    Graph.set_capacity t.graph edge capacity;
    if t.have_duals then repair_capacity t ~edge ~c_old ~c_new:capacity);
  let r = resolve t in
  let total_s = Obs.now () -. t_start in
  record_latency ~code ~warm:r.warm total_s;
  Obs.Sink.emit t.config.obs Obs.Event_end ~session:subject ~a:total_s
    ~b:(if r.warm then 1.0 else 0.0);
  { r with event = Some te.Churn.event; at = te.Churn.at; total_s }

let replay t trace = List.map (fun te -> apply t te) trace

(* --- accessors -------------------------------------------------------- *)

let n_sessions t = Array.length t.sessions
let sessions t = Array.copy t.sessions
let graph t = t.graph
let last_run t = t.last

let solution t =
  match t.last with
  | None -> None
  | Some (Run_maxflow r) -> Some r.Max_flow.solution
  | Some (Run_mcf r) -> Some r.Max_concurrent_flow.solution

let objective t = match t.last with None -> 0.0 | Some run -> objective_of run

type stats = { resolves : int; warm_accepted : int; cold_solves : int }

let stats (t : t) =
  {
    resolves = t.resolves;
    warm_accepted = t.warm_accepted;
    cold_solves = t.cold_solves;
  }
