type demand_scaling = Maxflow_weighted | Proportional
type variant = Paper | Fleischer

type result = {
  solution : Solution.t;
  phases : int;
  main_mst_operations : int;
  pre_mst_operations : int;
  zetas : float array;
  epsilon : float;
  dual_lengths : float array;
  dual_ln_base : float;
  working_demands : float array;
}

let ratio_to_epsilon r =
  if r <= 0.0 || r >= 1.0 then invalid_arg "Max_concurrent_flow.ratio_to_epsilon";
  (1.0 -. r) /. 3.0

type warm_start = {
  prev_lens : float array;
  prev_ln_base : float;
  room : float;
}

let renorm_threshold = 1e150

let run_name = Obs.Name.intern "mcf"
let preprocess_span = Obs.Span.make "mcf.preprocess"
let main_span = Obs.Span.make "mcf.main"

let c_runs = Obs.Counter.make ~doc:"MaxConcurrentFlow solver runs" "mcf.runs"

let c_phases =
  Obs.Counter.make ~doc:"MaxConcurrentFlow phases / alpha-steps" "mcf.phases"

let c_doublings =
  Obs.Counter.make ~doc:"demand doublings at the T-horizon (Lemma 6)"
    "mcf.demand_doublings"

let c_rescales =
  Obs.Counter.make ~doc:"MaxConcurrentFlow dual-length renormalizations"
    "mcf.rescales"

(* Shared state of one run: lengths in log-space plus the incremental
   dual objective. *)
type state = {
  graph : Graph.t;
  epsilon : float;
  m : int;
  lens : float array;
  caps : float array;          (* edge id -> capacity, read without a closure *)
  notify : Overlay.notify_index;  (* the run's overlays, for [route] *)
  mutable ln_base : float;
  mutable s_cache : float;     (* sum_e c_e lens_e *)
  ln_delta : float;
}

let make_state graph overlays ~epsilon =
  let m = Graph.n_edges graph in
  let ln_delta = -.(1.0 /. epsilon) *. log (float_of_int m /. (1.0 -. epsilon)) in
  (* d_e = exp(ln_base) * lens.(e); initial d_e = delta / c_e *)
  let lens = Array.make m 0.0 in
  Graph.iter_edges graph (fun e ->
      lens.(e.Graph.id) <-
        (if e.Graph.capacity > 0.0 then 1.0 /. e.Graph.capacity else infinity));
  let s_cache =
    Graph.fold_edges graph
      (fun acc e ->
        if e.Graph.capacity > 0.0 then acc +. (e.Graph.capacity *. lens.(e.Graph.id))
        else acc)
      0.0
  in
  let caps = Array.init m (fun id -> Graph.capacity graph id) in
  let notify = Overlay.notify_index overlays in
  { graph; epsilon; m; lens; caps; notify; ln_base = ln_delta; s_cache;
    ln_delta }

let refresh_dual st =
  st.s_cache <-
    Graph.fold_edges st.graph
      (fun acc e ->
        if e.Graph.capacity > 0.0 then
          acc +. (e.Graph.capacity *. st.lens.(e.Graph.id))
        else acc)
      0.0

let dual_reached_one st = log st.s_cache +. st.ln_base >= 0.0

let renorm obs st overlays =
  let scale = 1.0 /. renorm_threshold in
  for id = 0 to st.m - 1 do
    if st.lens.(id) < infinity then st.lens.(id) <- st.lens.(id) *. scale
  done;
  Array.iter Overlay.notify_rescale overlays;
  st.s_cache <- st.s_cache *. scale;
  st.ln_base <- st.ln_base +. log renorm_threshold;
  Obs.Counter.incr c_rescales;
  Obs.Sink.emit obs Obs.Rescale ~session:(-1) ~a:st.ln_base ~b:0.0

(* Route [c] units along [tree], updating lengths and the dual sum. *)
let route obs st overlays solution tree c =
  Solution.add solution tree c;
  (* batched dual update: one pass over the tree's physical edges
     writing the length array, then one notify pass through the run's
     merged incidence index.  Every usage edge here has positive
     capacity (a zero-capacity edge would have zeroed the bottleneck
     and prevented the routing), so the pass marks exactly the edges
     the per-edge interleaving marked; after >= before always, so the
     monotone fast path applies. *)
  let usage = tree.Otree.usage in
  let needs_renorm = ref false in
  for u = 0 to Array.length usage - 1 do
    let id, count = usage.(u) in
    let ce = st.caps.(id) in
    if ce > 0.0 then begin
      let before = st.lens.(id) in
      let after =
        before *. (1.0 +. (st.epsilon *. float_of_int count *. c /. ce))
      in
      st.lens.(id) <- after;
      st.s_cache <- st.s_cache +. (ce *. (after -. before));
      if after > renorm_threshold then needs_renorm := true
    end
  done;
  Overlay.notify_usage st.notify usage;
  if !needs_renorm then renorm obs st overlays

(* ln of the tree's real length (weight in lens units times base). *)
let ln_tree_length st tree =
  let w = Otree.weight tree st.lens in
  if w <= 0.0 then neg_infinity else log w +. st.ln_base

(* --- the paper's Table III main loop ------------------------------- *)

let run_paper obs st overlays working solution =
  let k = Array.length overlays in
  let length id = st.lens.(id) in
  let phases = ref 0 in
  (* Demand-doubling horizon (Lemma 6 / Sec. III-C): if the loop outlives
     T phases the optimum exceeds 2; doubling demands halves it. *)
  let t_horizon =
    let bound =
      2.0 /. st.epsilon
      *. (log (float_of_int st.m /. (1.0 -. st.epsilon)) /. log (1.0 +. st.epsilon))
    in
    max 1 (int_of_float (ceil bound))
  in
  let finished = ref (dual_reached_one st) in
  while not !finished do
    incr phases;
    Obs.Counter.incr c_phases;
    Obs.Sink.emit obs Obs.Phase_start ~session:(-1) ~a:(float_of_int !phases)
      ~b:0.0;
    for i = 0 to k - 1 do
      let remaining = ref working.(i) in
      while (not !finished) && !remaining > 1e-15 do
        let tree = Overlay.min_spanning_tree overlays.(i) ~length in
        let bottleneck = Otree.bottleneck tree st.caps in
        let c = Float.min !remaining bottleneck in
        if c <= 0.0 || c = infinity then remaining := 0.0
        else begin
          route obs st overlays solution tree c;
          remaining := !remaining -. c;
          if dual_reached_one st then finished := true
        end
      done
    done;
    refresh_dual st;
    Obs.Sink.emit obs Obs.Phase_end ~session:(-1) ~a:(float_of_int !phases)
      ~b:0.0;
    if (not !finished) && !phases mod t_horizon = 0 then begin
      for i = 0 to k - 1 do
        working.(i) <- working.(i) *. 2.0
      done;
      Obs.Counter.incr c_doublings;
      Obs.Sink.emit obs Obs.Demand_double ~session:(-1)
        ~a:(float_of_int !phases) ~b:0.0
    end
  done;
  !phases

(* --- Fleischer's improvement [12] ----------------------------------- *)

(* Trees are reused while their current length stays below the running
   lower bound alpha times (1 + eps); minimum-overlay-spanning-tree
   recomputations happen only when a cached tree expires, which removes
   the per-step MST from the inner loop.  alpha is tracked in log space
   like the lengths. *)

let run_fleischer obs st overlays working solution =
  let k = Array.length overlays in
  let length id = st.lens.(id) in
  let cached : Otree.t option array = Array.make k None in
  let remaining = Array.copy working in
  (* initial alpha: the smallest current tree length across sessions *)
  let ln_alpha =
    ref
      (Array.fold_left
         (fun acc o ->
           let t = Overlay.min_spanning_tree o ~length in
           Float.min acc (ln_tree_length st t))
         infinity overlays)
  in
  let ln_one_plus_eps = log (1.0 +. st.epsilon) in
  let alpha_steps = ref 0 in
  let finished = ref (dual_reached_one st) in
  while not !finished && !ln_alpha < 0.0 do
    incr alpha_steps;
    Obs.Counter.incr c_phases;
    Obs.Sink.emit obs Obs.Phase_start ~session:(-1)
      ~a:(float_of_int !alpha_steps) ~b:!ln_alpha;
    (* sweep commodities, routing while some tree is within alpha(1+eps) *)
    for i = 0 to k - 1 do
      let commodity_done = ref false in
      while (not !finished) && not !commodity_done do
        let tree_ok t = ln_tree_length st t <= !ln_alpha +. ln_one_plus_eps in
        let tree =
          match cached.(i) with
          | Some t when tree_ok t -> Some t
          | _ ->
            let t = Overlay.min_spanning_tree overlays.(i) ~length in
            cached.(i) <- Some t;
            if tree_ok t then Some t else None
        in
        match tree with
        | None -> commodity_done := true
        | Some tree ->
          let bottleneck = Otree.bottleneck tree st.caps in
          let c = Float.min remaining.(i) bottleneck in
          if c <= 0.0 || c = infinity then commodity_done := true
          else begin
            route obs st overlays solution tree c;
            remaining.(i) <- remaining.(i) -. c;
            if remaining.(i) <= 1e-15 then
              (* full demand routed once more; start the next round *)
              remaining.(i) <- working.(i);
            if dual_reached_one st then finished := true
          end
      done
    done;
    refresh_dual st;
    Obs.Sink.emit obs Obs.Phase_end ~session:(-1)
      ~a:(float_of_int !alpha_steps) ~b:!ln_alpha;
    if dual_reached_one st then finished := true
    else ln_alpha := !ln_alpha +. ln_one_plus_eps
  done;
  !alpha_steps

(* --- common driver --------------------------------------------------- *)

let solve ?(variant = Paper) ?(incremental = true) ?(obs = Obs.Sink.null)
    ?(sparsify = Sparsify.full) ?warm_start ?warm_zetas graph overlays ~epsilon
    ~scaling =
  if epsilon <= 0.0 || epsilon >= 1.0 /. 3.0 then
    invalid_arg "Max_concurrent_flow.solve: epsilon out of (0, 1/3)";
  (* convenience rebuild, identity under the default (full) spec; the
     pruned overlays are used for preprocessing and main loop alike *)
  let overlays =
    if Sparsify.is_full sparsify then overlays
    else Array.map (fun o -> Overlay.resparsify o sparsify) overlays
  in
  let k = Array.length overlays in
  if k = 0 then invalid_arg "Max_concurrent_flow.solve: no sessions";
  Array.iter
    (fun o ->
      if Overlay.graph o != graph then
        invalid_arg "Max_concurrent_flow.solve: overlay on a different graph")
    overlays;
  let sessions = Array.map Overlay.session overlays in
  Array.iter Overlay.reset_mst_operations overlays;
  Obs.Counter.incr c_runs;
  Obs.Sink.emit obs Obs.Run_start ~session:run_name ~a:(float_of_int k)
    ~b:epsilon;
  (* Preprocessing: standalone maximum flow per session, in session
     order.  The nested MaxFlow runs emit their own Run_start/Run_end
     inside this span. *)
  let zetas =
    (* Warm re-solves reuse the per-session maximum flow rates of the
       previous run: a zeta depends only on the session's members and
       the topology, so under pure demand churn it is exact, and under
       capacity churn the recorded zetas still define a valid demand
       direction — [Check.certify_mcf] re-derives the scaling from the
       zetas recorded in the result, and the duality gap is measured in
       whatever direction was actually routed. *)
    match warm_zetas with
    | Some wz ->
      if Array.length wz <> k then
        invalid_arg "Max_concurrent_flow.solve: warm_zetas length mismatch";
      Array.copy wz
    | None ->
    Obs.Span.with_ obs preprocess_span (fun () ->
        Array.map
          (fun o ->
            fst (Max_flow.solve_single ~incremental ~obs graph o ~epsilon))
          overlays)
  in
  let pre_mst_operations = Overlay.total_mst_operations overlays in
  Array.iter Overlay.reset_mst_operations overlays;
  (* Working demands put the optimum into [1, k]. *)
  let kf = float_of_int k in
  let working =
    match scaling with
    | Maxflow_weighted -> Array.map (fun z -> Float.max (z /. kf) 1e-12) zetas
    | Proportional ->
      let lambda =
        Array.fold_left Float.min infinity
          (Array.mapi (fun i z -> z /. sessions.(i).Session.demand) zetas)
      in
      let s = Float.max (lambda /. kf) 1e-12 in
      Array.map (fun session -> session.Session.demand *. s) sessions
  in
  let st = make_state graph overlays ~epsilon in
  (* Warm start: inherit the previous run's dual shape (renormalized so
     the largest finite entry is 1 — only ratios matter) and aim
     [ln_base] so the dual objective opens at [exp (-room)] instead of
     [delta]-scale; [dual_reached_one] then fires after ~[room] nats of
     dual growth.  Feasibility is settled post hoc by measured
     congestion, exactly as in [Max_flow]; optimality must be
     re-validated by [Check.certify_mcf] (room ladder in [Engine]). *)
  (match warm_start with
  | None -> ()
  | Some w ->
    if Array.length w.prev_lens <> st.m then
      invalid_arg "Max_concurrent_flow.solve: warm_start length mismatch";
    if not (Float.is_finite w.room && w.room > 0.0) then
      invalid_arg "Max_concurrent_flow.solve: warm_start room must be positive";
    let mx = ref 0.0 in
    for e = 0 to st.m - 1 do
      let v = w.prev_lens.(e) in
      if Float.is_nan v || v <= 0.0 then
        invalid_arg "Max_concurrent_flow.solve: warm_start lengths must be > 0";
      if st.caps.(e) > 0.0 then begin
        if not (Float.is_finite v) then
          invalid_arg
            "Max_concurrent_flow.solve: warm_start length infinite on a \
             capacitated edge";
        if v > !mx then mx := v
      end
    done;
    if !mx <= 0.0 then
      invalid_arg "Max_concurrent_flow.solve: warm_start has no finite length";
    let inv = 1.0 /. !mx in
    for e = 0 to st.m - 1 do
      st.lens.(e) <-
        (if st.caps.(e) > 0.0 then w.prev_lens.(e) *. inv else infinity)
    done;
    refresh_dual st;
    st.ln_base <- -.w.room -. log st.s_cache);
  let solution = Solution.create sessions in
  if Obs.Sink.enabled obs then
    Array.iter (fun o -> Overlay.set_sink o obs) overlays;
  (* the engine reads [st.lens], which backs the main loop's [length] *)
  if incremental then
    Array.iter (fun o -> Overlay.begin_incremental o st.lens) overlays;
  let phases =
    Fun.protect
      ~finally:(fun () ->
        if incremental then Array.iter Overlay.end_incremental overlays;
        if Obs.Sink.enabled obs then Array.iter Overlay.clear_sink overlays)
      (fun () ->
        Obs.Span.with_ obs main_span (fun () ->
            match variant with
            | Paper -> run_paper obs st overlays working solution
            | Fleischer -> run_fleischer obs st overlays working solution))
  in
  (match warm_start with
  | None ->
    (* Scale by log_{1+eps} (1/delta) for feasibility. *)
    let scale_factor = -.st.ln_delta /. log (1.0 +. epsilon) in
    if scale_factor > 0.0 then Solution.scale solution (1.0 /. scale_factor)
  | Some _ ->
    (* Measured feasibility scaling: normalize the raw flow to exact
       link saturation.  The GK per-edge growth bound (flow on edge e
       is at most [c_e log_{1+eps} (d_e^final / d_e^0)] for any
       initial lengths) keeps raw magnitudes bounded; measured max
       congestion is the exact feasibility constant and maximizes the
       primal the certificate sees. *)
    let c = Solution.max_congestion solution graph in
    if c > 0.0 then Solution.scale solution (1.0 /. c));
  (* guard against the partial final phase with an explicit
     congestion check *)
  let congestion = Solution.max_congestion solution graph in
  if congestion > 1.0 then Solution.scale solution (1.0 /. congestion);
  if Obs.Sink.enabled obs then begin
    Array.iteri
      (fun slot _ ->
        Obs.Sink.emit obs Obs.Session_rate ~session:slot
          ~a:(Solution.session_rate solution slot)
          ~b:0.0)
      sessions;
    Obs.Sink.emit obs Obs.Run_end ~session:run_name ~a:(float_of_int phases)
      ~b:(Solution.concurrent_ratio solution)
  end;
  {
    solution;
    phases;
    main_mst_operations = Overlay.total_mst_operations overlays;
    pre_mst_operations;
    zetas;
    epsilon;
    dual_lengths = st.lens;
    dual_ln_base = st.ln_base;
    working_demands = working;
  }
