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
      [Proportional], see {!demand_scaling}) times [2^j] after [j]
      [T]-horizon doublings.  The [(1 - 3 eps)] guarantee is relative
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
    finite positive. *)
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
    the session count. *)
val solve :
  ?variant:variant ->
  ?incremental:bool ->
  ?obs:Obs.Sink.t ->
  ?warm_start:warm_start ->
  ?warm_zetas:float array ->
  Graph.t ->
  Overlay.t array ->
  epsilon:float ->
  scaling:demand_scaling ->
  result
