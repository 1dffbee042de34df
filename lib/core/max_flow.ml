type result = {
  solution : Solution.t;
  iterations : int;
  mst_operations : int;
  epsilon : float;
  dual_lengths : float array;
}

let ratio_to_epsilon r =
  if r <= 0.0 || r >= 1.0 then invalid_arg "Max_flow.ratio_to_epsilon";
  (1.0 -. r) /. 2.0

type warm_start = {
  prev_lens : float array;
  room : float;
}

type stop = Threshold | Certificate

(* Lengths are represented as d_e = exp(ln_base) * lens.(e).  Only ratios
   of lengths matter to the MST and to the update rule; ln_base enters
   solely through the stop test and is adjusted whenever the stored
   magnitudes threaten to overflow. *)

let renorm_threshold = 1e150

let run_name = Obs.Name.intern "maxflow"

let c_runs = Obs.Counter.make ~doc:"MaxFlow solver runs" "maxflow.runs"

let c_iterations =
  Obs.Counter.make ~doc:"MaxFlow augmentations (winning-tree routings)"
    "maxflow.iterations"

let c_rescales =
  Obs.Counter.make ~doc:"MaxFlow dual-length renormalizations" "maxflow.rescales"

let c_certified_stops =
  Obs.Counter.make
    ~doc:
      "MaxFlow runs ended by their duality certificate, before room or the \
       a-priori threshold"
    "maxflow.certified_stops"

(* The running certificate of a [Certificate] run, in the units of
   [lens]: [dual] = D(d) = sum over capacitated edges of c_e * lens_e,
   [primal] = the raw flow's objective sum_i (|S_i|-1) f_i / (|S_max|-1),
   and [congestion] = the raw flow's maximum load / capacity.  All
   fields are floats, so the record is flat and writes allocate
   nothing. *)
type certificate = {
  mutable dual : float;
  mutable primal : float;
  mutable congestion : float;
}

(* D(d) from scratch, in edge order, skipping zero-capacity edges as
   [Check.dual_objective] does *)
let dual_objective (caps : float array) (lens : float array) =
  let acc = ref 0.0 in
  for e = 0 to Array.length caps - 1 do
    if caps.(e) > 0.0 then acc := !acc +. (caps.(e) *. lens.(e))
  done;
  !acc

(* [(w.(a), a)] precedes [(w.(b), b)] lexicographically *)
let lex_less (w : float array) a b = w.(a) < w.(b) || (w.(a) = w.(b) && a < b)

let solve ?(incremental = true) ?(obs = Obs.Sink.null) ?warm_start
    ?(stop = Threshold) graph overlays ~epsilon =
  if epsilon <= 0.0 || epsilon >= 0.5 then
    invalid_arg "Max_flow.solve: epsilon out of (0, 0.5)";
  let k = Array.length overlays in
  if k = 0 then invalid_arg "Max_flow.solve: no sessions";
  Array.iter
    (fun o ->
      if Overlay.graph o != graph then
        invalid_arg "Max_flow.solve: overlay built on a different graph")
    overlays;
  let sessions = Array.map Overlay.session overlays in
  let smax = float_of_int (Session.max_size sessions - 1) in
  let u_bound =
    Array.fold_left (fun acc o -> max acc (Overlay.max_route_hops o)) 1 overlays
  in
  (* ln delta = (1 - 1/eps) ln (1+eps) - (1/eps) ln ((|Smax|-1) U)  *)
  let ln_delta =
    ((1.0 -. (1.0 /. epsilon)) *. log (1.0 +. epsilon))
    -. ((1.0 /. epsilon) *. log (smax *. float_of_int u_bound))
  in
  let m = Graph.n_edges graph in
  (* per-edge capacities, precomputed: the same IEEE values the closures
     produced, without a call per use *)
  let caps = Array.init m (fun id -> Graph.capacity graph id) in
  (* d_e starts at delta for every edge: lens = 1, ln_base = ln delta.
     A zero-capacity edge can never carry flow, so it is priced at
     +infinity: trees avoid it wherever the overlay allows, instead of
     winning with a zero bottleneck that would stop the run. *)
  let lens = Array.map (fun c -> if c > 0.0 then 1.0 else infinity) caps in
  let ln_base = ref ln_delta in
  (* Warm start seeds the duals with a previous run's shape.  Only
     length ratios enter the MSTs and the update rule, so the stored
     magnitudes are renormalized (largest finite entry 1); [ln_base] is
     re-aimed below, once the warmest tree is known, so the run opens
     with [room] nats of dual headroom instead of the full delta range.
     Zero-capacity edges stay at +infinity whatever they inherit. *)
  (match warm_start with
  | None -> ()
  | Some w ->
    if Array.length w.prev_lens <> m then
      invalid_arg "Max_flow.solve: warm_start length mismatch";
    if not (Float.is_finite w.room && w.room > 0.0) then
      invalid_arg "Max_flow.solve: warm_start room must be positive";
    let mx = ref 0.0 in
    Array.iteri
      (fun e v ->
        if Float.is_nan v || v <= 0.0 then
          invalid_arg "Max_flow.solve: warm_start lengths must be > 0";
        if caps.(e) > 0.0 then begin
          if not (Float.is_finite v) then
            invalid_arg
              "Max_flow.solve: warm_start length infinite on a capacitated \
               edge";
          if v > !mx then mx := v
        end)
      w.prev_lens;
    let inv = 1.0 /. !mx in
    for e = 0 to m - 1 do
      if caps.(e) > 0.0 then lens.(e) <- w.prev_lens.(e) *. inv
    done);
  let solution = Solution.create sessions in
  let iterations = ref 0 in
  (* per-session normalizers, precomputed like [caps] *)
  let norm =
    Array.init k (fun i -> smax /. float_of_int (Session.receivers sessions.(i)))
  in
  (* [Certificate]: weak duality bounds OPT by D(d)/alpha(d), and the
     raw flow divided by its congestion is feasible, so the run may stop
     once primal / congestion >= (1 - eps) * D(d) / alpha(d) *)
  let certificate = stop = Certificate in
  let target = 1.0 -. epsilon in
  let cert =
    {
      dual = (if certificate then dual_objective caps lens else 0.0);
      primal = 0.0;
      congestion = 0.0;
    }
  in
  let loads = if certificate then Array.make m 0.0 else [||] in
  let certified = ref false in
  Obs.Counter.incr c_runs;
  Obs.Sink.emit obs Obs.Run_start ~session:run_name ~a:(float_of_int k)
    ~b:epsilon;
  if Obs.Sink.enabled obs then
    Array.iter (fun o -> Overlay.set_sink o obs) overlays;
  if incremental then
    Array.iter (fun o -> Overlay.begin_incremental o lens) overlays;
  let notify = Overlay.notify_index overlays in
  Fun.protect
    ~finally:(fun () ->
      if incremental then Array.iter Overlay.end_incremental overlays;
      if Obs.Sink.enabled obs then Array.iter Overlay.clear_sink overlays)
    (fun () ->
      let finished = ref false in
      (* Best-first winner sweep.  Dual lengths only grow between
         rescales, so each session's normalized MST weight is
         non-decreasing and its last computed value [low_w] is a lower
         bound on the current one (after [eval i], [low_w.(i)] is exact).
         Sessions are visited in ascending [(low_w i, i)] order, and the
         sweep stops at the first session whose bound already loses
         lexicographically to the best exact [(weight, index)] found so
         far: every later session's bound loses too, and no weight is
         below its bound.  The winner is therefore the argmin of
         [(w_i, i)] over all sessions, which [~incremental:false]
         computes by evaluating every session.  [order] persists across
         iterations and is re-sorted by insertion: only the sessions just
         evaluated have moved.  Bounds reset on rescale (all lengths
         shrink). *)
      let low_w = Array.make k neg_infinity in
      let order = Array.init k Fun.id in
      let trees = Array.make k None in
      let eval i =
        let tree = Overlay.min_spanning_tree overlays.(i) lens in
        low_w.(i) <- Otree.weight tree lens *. norm.(i);
        match trees.(i) with
        | Some prev when prev == tree -> ()
        | _ -> trees.(i) <- Some tree
      in
      (* Warm start: evaluate every session once under the inherited
         lengths (the results seed the lazy bounds, so nothing is
         wasted), then aim [ln_base] so the warmest normalized tree
         starts at [exp (-room)] — the stop test fires after roughly
         [room / ln (1+eps)] length doublings instead of the full
         [ln (1/delta)] climb, which is where the re-solve speedup
         comes from.  Feasibility of the result no longer follows from
         the a-priori delta argument; it is settled after the loop from
         the snapshot taken here. *)
      (match warm_start with
      | None -> ()
      | Some w ->
        for i = 0 to k - 1 do
          eval i
        done;
        let w_min = ref infinity in
        for i = 0 to k - 1 do
          if low_w.(i) < !w_min then w_min := low_w.(i)
        done;
        if Float.is_finite !w_min && !w_min > 0.0 then
          ln_base := -.w.room -. log !w_min);
      while not !finished do
        for p = 1 to k - 1 do
          let i = order.(p) in
          let q = ref (p - 1) in
          while !q >= 0 && lex_less low_w i order.(!q) do
            order.(!q + 1) <- order.(!q);
            decr q
          done;
          order.(!q + 1) <- i
        done;
        let best = ref order.(0) in
        eval !best;
        let p = ref 1 in
        while !p < k do
          let i = order.(!p) in
          if incremental && lex_less low_w !best i then p := k
          else begin
            eval i;
            if lex_less low_w i !best then best := i;
            incr p
          end
        done;
        let winner = !best in
        let w = low_w.(winner) in
        let tree =
          match trees.(winner) with Some t -> t | None -> assert false
        in
        begin
          (* normalized length in real units: w * exp(ln_base) >= 1 ? *)
          if w <= 0.0 || log w +. !ln_base >= 0.0 then finished := true
          else if
            (* [w] is alpha(d) here: the sweep has just found the
               minimum; the running D is confirmed by a fresh sum *)
            certificate && cert.primal > 0.0
            && cert.primal *. w >= target *. cert.congestion *. cert.dual
            && begin
                 cert.dual <- dual_objective caps lens;
                 cert.primal *. w >= target *. cert.congestion *. cert.dual
               end
          then begin
            certified := true;
            finished := true
          end
          else begin
            incr iterations;
            Obs.Counter.incr c_iterations;
            if Obs.Sink.enabled obs then
              Obs.Sink.emit obs Obs.Iter_start ~session:winner
                ~a:(float_of_int !iterations) ~b:0.0;
            let c = Otree.bottleneck tree caps in
            if c <= 0.0 || c = infinity then finished := true
            else begin
              Solution.add solution tree c;
              if certificate then
                cert.primal <- cert.primal +. (c /. norm.(winner));
              (* batched dual update: one pass over the winning tree's
                 physical edges writing [lens], then one notify pass
                 through the solve's merged incidence index.  Identical
                 to the per-edge interleaving — the overlays read [lens]
                 only at the next MST call, and dirty sets are unions
                 (growth > 1 always: the monotone fast path applies). *)
              let usage = tree.Otree.usage in
              let needs_renorm = ref false in
              for u = 0 to Array.length usage - 1 do
                let id, count = usage.(u) in
                let growth =
                  1.0 +. (epsilon *. float_of_int count *. c /. caps.(id))
                in
                let before = lens.(id) in
                lens.(id) <- before *. growth;
                if certificate then begin
                  cert.dual <- cert.dual +. (caps.(id) *. (lens.(id) -. before));
                  let load = loads.(id) +. (float_of_int count *. c) in
                  loads.(id) <- load;
                  if load /. caps.(id) > cert.congestion then
                    cert.congestion <- load /. caps.(id)
                end;
                if lens.(id) > renorm_threshold then needs_renorm := true
              done;
              Overlay.notify_usage notify usage;
              if !needs_renorm then begin
                let scale = 1.0 /. renorm_threshold in
                for id = 0 to m - 1 do
                  lens.(id) <- lens.(id) *. scale
                done;
                cert.dual <- cert.dual *. scale;
                Array.iter Overlay.notify_rescale overlays;
                Array.fill low_w 0 k neg_infinity;
                ln_base := !ln_base +. log renorm_threshold;
                Obs.Counter.incr c_rescales;
                Obs.Sink.emit obs Obs.Rescale ~session:(-1) ~a:!ln_base ~b:0.0
              end;
              if Obs.Sink.enabled obs then
                Obs.Sink.emit obs Obs.Iter_end ~session:winner
                  ~a:(float_of_int !iterations) ~b:c
            end
          end
        end
      done);
  if !certified then Obs.Counter.incr c_certified_stops;
  (match (warm_start, stop) with
  | None, Threshold ->
    (* Feasibility scaling: divide by log_{1+eps} ((1+eps)/delta). *)
    let scale_factor =
      (log (1.0 +. epsilon) -. ln_delta) /. log (1.0 +. epsilon)
    in
    if scale_factor > 0.0 then Solution.scale solution (1.0 /. scale_factor)
  | Some _, _ | None, Certificate ->
    (* Measured feasibility scaling: normalize the raw flow to exact
       link saturation.  (The GK per-edge growth bound — flow on edge
       e is at most [c_e log_{1+eps} (d_e^final / d_e^0)] for ANY
       initial lengths — guarantees the raw magnitudes are within a
       [room/ln(1+eps)] factor of feasible; the measured max
       congestion is the exact constant, and scaling by it maximizes
       the primal the certificate sees.) *)
    let congestion = Solution.max_congestion solution graph in
    if congestion > 0.0 then Solution.scale solution (1.0 /. congestion));
  if Obs.Sink.enabled obs then begin
    Array.iteri
      (fun slot _ ->
        Obs.Sink.emit obs Obs.Session_rate ~session:slot
          ~a:(Solution.session_rate solution slot)
          ~b:0.0)
      sessions;
    Obs.Sink.emit obs Obs.Run_end ~session:run_name
      ~a:(float_of_int !iterations)
      ~b:(Solution.overall_throughput solution)
  end;
  {
    solution;
    iterations = !iterations;
    mst_operations = Overlay.total_mst_operations overlays;
    epsilon;
    dual_lengths = lens;
  }

let solve_single ?incremental ?obs ?warm_start ?stop graph overlay ~epsilon =
  let result =
    solve ?incremental ?obs ?warm_start ?stop graph [| overlay |] ~epsilon
  in
  (* the single session keeps its own id; rate lookup goes through the
     session array of the fresh solution, which has exactly one slot *)
  let sessions = Solution.sessions result.solution in
  let rate =
    if Array.length sessions = 1 then Solution.session_rate result.solution 0
    else 0.0
  in
  (rate, result)
