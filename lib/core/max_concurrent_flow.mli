(** MaxConcurrentFlow — the FPTAS for the overlay maximum concurrent
    flow problem M2 (Table III of the paper), achieving weighted
    max-min fairness with the demands as weights.

    Phase structure: in each phase, every session routes its (working)
    demand in steps along minimum overlay spanning trees, updating the
    dual lengths [d_e <- d_e (1 + eps n_e c / c_e)]; the run stops when
    the dual objective [sum_e c_e d_e] reaches 1.  The flow scaled by
    [log_{1+eps} (1/delta)] is feasible and at least [(1 - 3 eps)]
    optimal (Lemmas 4–6).

    Preprocessing (Sec. III-C end): the per-session maximum flow rates
    [zeta_i] are obtained by running MaxFlow on each session alone, and
    working demands are scaled so the optimum lies in [1, k]; if the
    main loop survives [T = (2/eps) log_{1+eps} (|E|/(1-eps))] phases,
    demands are doubled (halving the optimum) and the loop continues.

    Two demand-scaling policies are provided because the paper's own
    Table IV reports {e unequal} rates for sessions of equal demand —
    consistent with its sessions' demands being rescaled to their
    standalone maximum flows, not by a common factor:
    - [Maxflow_weighted] (paper's Table IV behaviour): working demand of
      session i is proportional to zeta_i;
    - [Proportional]: one common scale factor, preserving the requested
      demand ratios exactly. *)

type demand_scaling = Maxflow_weighted | Proportional

(** The main-loop strategy.  [Paper] is Table III verbatim: one
    minimum-overlay-spanning-tree computation per routing step.  It is
    the only one: a tree-reuse loop after Fleischer [12] failed its own
    duality certificate on most small instances and was removed (see
    EXPERIMENTS.md, "One length representation").  The type, [?variant]
    on {!solve} and [Engine.Mcf]'s [variant] field stay because the
    churn benchmark's sources, [churnbench/workloads.ml] and
    [churnbench/reference.ml], name them. *)
type variant = Paper

type result = {
  solution : Solution.t;     (** feasible, scaled multi-tree flow *)
  phases : int;
  main_mst_operations : int; (** Table III loop (part one of Table IV's runtime) *)
  pre_mst_operations : int;  (** MaxFlow preprocessing (part two) *)
  zetas : float array;       (** standalone maximum flow rate per session *)
  epsilon : float;
  dual_lengths : float array;
  (** final dual length per physical edge id, in the solver's internal
      scale (edges of zero capacity hold [infinity]).  As with
      {!Max_flow.result}, only ratios are meaningful and only ratios
      enter the duality certificate, so the common scale factor is
      never materialized. *)
  working_demands : float array;
  (** the demand vector the main loop actually routed, per session
      slot: the preprocessing-scaled demands ([Maxflow_weighted] or
      [Proportional], see {!demand_scaling}) times [2^j], where [j]
      counts the [T]-horizon doublings and, in a warm run, the
      doublings of its demand scale (see {!warm_start}).  The
      [(1 - 3 eps)] guarantee is relative
      to the max-min objective {e in this demand direction};
      [Check.certify_mcf] re-validates both the scaling semantics and
      the duality gap against it. *)
}

(** [ratio_to_epsilon r] gives the [eps] with [(1 - 3 eps) = r]. *)
val ratio_to_epsilon : float -> float

(** Warm-start state for incremental re-solves — the concurrent-flow
    analogue of {!Max_flow.warm_start}.  The previous run's dual shape
    is inherited (renormalized) and the scale re-aimed so the dual
    objective [sum_e c_e d_e] opens at [exp (-room)], terminating after
    ~[room] nats of dual growth instead of the full [ln (1/delta)]
    climb.  Feasibility is settled post hoc — the raw warm flow is
    normalized to measured link saturation — and is unconditional;
    the [(1 - 3 eps)] optimality claim must be re-validated with
    [Check.certify_mcf] (escalate [room] or fall back to a cold solve
    on a duality-gap violation).  Edges of zero capacity are pinned to
    [infinity] as in a cold run; entries on capacitated edges must be
    finite positive.

    {b Demand scale.}  Table III spends about [OPT / eps] phases per
    nat of dual growth, [OPT] being the optimum in the working-demand
    direction, and a warm run inherits the preprocessing scale, where
    that optimum lies anywhere in [[1, k]].  So before its first phase
    a warm run doubles its working demands
    [j = max 0 (floor (log2 (D(d) / alpha(d))))] times, where
    [D(d) = sum_e c_e d_e] over the capacitated edges and
    [alpha(d) = sum_i working_i * mintree_i(d)], both at the inherited
    lengths: [k] MST calls.  A bound that is not finite gives [j = 0].
    Weak duality gives [D(d) / alpha(d) >= OPT], so the working
    optimum starts below 2, as after Lemma 6's doublings, and the
    run's duals grow about twice as fast per phase for each doubling.
    [result.working_demands] carries the factor and
    [Check.certify_mcf] accepts any power-of-two multiple of the
    bases it re-derives from the zetas.  Registry counter
    [mcf.warm_doublings] sums [j] over warm runs; cold runs keep the
    preprocessing scale. *)
type warm_start = {
  prev_lens : float array;  (** previous [result.dual_lengths] *)
  room : float;             (** dual headroom in nats, [> 0] *)
}

(** [solve ?variant graph overlays ~epsilon ~scaling] runs the
    algorithm ([variant] defaults to [Paper], the only one).
    [result.phases] counts demand phases.  [incremental] (default
    [true]) drives the overlays' incremental length engine, with the
    dual-length array bound, in both the MaxFlow preprocessing and the
    main loop; dual updates are batched with one notify pass per
    routing.  [~incremental:false] forces from-scratch weight
    recomputation (same output bit for bit, up to the monotone skip's
    tie-breaks; see {!Max_flow.solve}).

    [obs] (default [Obs.Sink.null]) receives the run's event trace:
    [Run_start] (run name ["mcf"], [a] = session count, [b] = epsilon);
    a [Span_open]/[Span_close] pair named ["mcf.preprocess"] enclosing
    the per-session MaxFlow runs (which emit their own nested traces);
    a ["mcf.main"] span enclosing the main loop, inside which each
    phase is bracketed by [Phase_start]/[Phase_end] ([a] = 1-based
    phase index, [b] = 0), with [Rescale] on dual renormalization and
    [Demand_double] when the [T]-horizon doubles the working demands
    ([a] = phase index at the doubling); then one
    [Session_rate] per slot and a final [Run_end] ([a] = phases,
    [b] = concurrent ratio).  With the null sink the solver output is
    bit-identical to an uninstrumented run.

    Raises [Invalid_argument] for [epsilon] outside (0, 1/3).

    The per-session MaxFlow runs and the main loop price trees over the
    overlays' own candidate space.  As with {!Max_flow.solve}, a pruned
    run passes overlays built with [Overlay.create ~sparsify] and
    certifies against those same overlays with [Check.certify_mcf] —
    the duality certificate is relative to the pruned tree space (see
    SCALING.md).

    [warm_start] (default absent — the cold path, bit-identical to
    builds predating the knob) seeds the main loop's duals from a
    previous run; see {!warm_start}.  [warm_zetas] skips the MaxFlow
    preprocessing entirely and records the given per-session rates in
    the result ([pre_mst_operations] is then 0); the certificate
    re-derives the demand scaling from the recorded zetas, so reuse
    across demand/capacity churn stays certifiable.  Length must equal
    the session count.

    [stop] (default [Max_flow.Threshold], Table III bit for bit: the
    paper tables, [overlay_cli solve] and every from-scratch reference
    use it) picks the stopping rule of the main loop, and is passed on
    to the preprocessing MaxFlow runs ({!Max_flow.solve_single}).
    Under [Max_flow.Certificate] the run also stops at the end of a
    phase, right after [D(d)] is re-summed, once
    [lambda_raw * alpha' >= (1 - eps) * congestion * D(d)]:
    - [lambda_raw = min_i raw_i / working_i] over the raw (unscaled)
      session rates, and [congestion] is the raw flow's maximum
      load / capacity; both are kept up to date on each routed tree's
      edges;
    - [alpha' = sum_i working_i * w_i], where [w_i] is the weight of
      the tree session [i] last routed on in the phase, taken when the
      tree was chosen.  That tree was a minimum one then, lengths only
      grow between rescales, and a rescale multiplies the stored [w_i]
      together with the lengths, so [alpha' <= alpha(d)]: the test is
      conservative against [Check.certify_mcf]'s bound
      [D(d) / alpha(d)] and needs no MST call of its own.
    Room (warm) and the a-priori threshold stay upper bounds, and a
    run that reaches one first ends as under [Threshold].  Every
    [Certificate] run, cold ones included, scales its flow by the
    measured congestion, so it is feasible; one its certificate ended
    is, by weak duality, at least [(1 - eps)] of optimal in its
    working direction, inside the [(1 - 3 eps)] that [Check]
    certifies.  The target is [1 - eps] as for MaxFlow.  Registry
    counter [mcf.certified_stops] counts the runs the certificate
    ended.  {!Engine} passes [Certificate] on every MCF run. *)
val solve :
  ?variant:variant ->
  ?incremental:bool ->
  ?obs:Obs.Sink.t ->
  ?warm_start:warm_start ->
  ?warm_zetas:float array ->
  ?stop:Max_flow.stop ->
  Graph.t ->
  Overlay.t array ->
  epsilon:float ->
  scaling:demand_scaling ->
  result
