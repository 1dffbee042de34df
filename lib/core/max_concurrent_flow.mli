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

(** The main-loop strategy.
    - [Paper]: Table III verbatim — one minimum-overlay-spanning-tree
      computation per routing step.
    - [Fleischer]: the improvement of Fleischer [12] the paper builds
      on: a commodity reuses its cached tree while the tree's current
      length stays within [(1 + eps)] of the running lower bound
      [alpha], so MST recomputations leave the inner loop.  Same
      [(1 - 3 eps)] guarantee, far fewer MST operations; the
      [abl_fleischer] bench quantifies the gap. *)
type variant = Paper | Fleischer

type result = {
  solution : Solution.t;     (** feasible, scaled multi-tree flow *)
  phases : int;
  main_mst_operations : int; (** Table III loop (part one of Table IV's runtime) *)
  pre_mst_operations : int;  (** MaxFlow preprocessing (part two) *)
  zetas : float array;       (** standalone maximum flow rate per session *)
  epsilon : float;
  dual_lengths : float array;
  (** final dual length per physical edge id, in the solver's internal
      scale: [d_e = exp dual_ln_base *. dual_lengths.(e)] (edges of
      zero capacity hold [infinity]).  As with {!Max_flow.result}, only
      ratios enter the duality certificate, so the common scale factor
      never has to be materialized. *)
  dual_ln_base : float;
  (** log of the common scale factor of [dual_lengths]. *)
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
    is inherited (renormalized; [prev_ln_base] is provenance only) and
    the scale re-aimed so the dual objective [sum_e c_e d_e] opens at
    [exp (-room)], terminating after ~[room] nats of dual growth
    instead of the full [ln (1/delta)] climb.  Feasibility is settled
    post hoc — the raw warm flow is normalized to measured link
    saturation — and is
    unconditional; the [(1 - 3 eps)] optimality claim must be
    re-validated with [Check.certify_mcf] (escalate [room] or fall
    back to a cold solve on a duality-gap violation).  Edges of zero
    capacity are pinned to [infinity] as in a cold run; entries on
    capacitated edges must be finite positive. *)
type warm_start = {
  prev_lens : float array;  (** previous [result.dual_lengths] *)
  prev_ln_base : float;     (** previous [result.dual_ln_base] *)
  room : float;             (** dual headroom in nats, [> 0] *)
}

(** [solve ?variant graph overlays ~epsilon ~scaling] runs the
    algorithm ([variant] defaults to [Paper]).  [result.phases] counts
    demand phases in [Paper] mode and alpha-steps in [Fleischer] mode.
    [incremental] (default [true]) drives the overlays' incremental
    length engine, with the dual-length array bound, in both the
    MaxFlow preprocessing and the main loop; dual updates are batched
    with one notify pass per routing.  [~incremental:false] forces
    from-scratch weight recomputation (same output bit for bit, up to
    the monotone skip's tie-breaks; see {!Max_flow.solve}).

    [obs] (default [Obs.Sink.null]) receives the run's event trace:
    [Run_start] (run name ["mcf"], [a] = session count, [b] = epsilon);
    a [Span_open]/[Span_close] pair named ["mcf.preprocess"] enclosing
    the per-session MaxFlow runs (which emit their own nested traces);
    a ["mcf.main"] span enclosing the main loop, inside which each
    phase/alpha-step is bracketed by [Phase_start]/[Phase_end]
    ([a] = 1-based phase index; [b] = the running [ln alpha] in
    [Fleischer] mode, [0] in [Paper] mode), with [Rescale] on dual
    renormalization and [Demand_double] when the [T]-horizon doubles
    the working demands ([a] = phase index at the doubling); then one
    [Session_rate] per slot and a final [Run_end] ([a] = phases,
    [b] = concurrent ratio).  With the null sink the solver output is
    bit-identical to an uninstrumented run.

    Raises [Invalid_argument] for [epsilon] outside (0, 1/3).

    [sparsify] (default [Sparsify.full]) rebuilds any overlay whose
    recorded spec differs ({!Overlay.resparsify}) before preprocessing,
    so both the per-session MaxFlow runs and the main loop price trees
    over the same pruned candidate space.  Identity under the default
    spec.  As with {!Max_flow.solve}, callers that certify should build
    the overlays with [Overlay.create ~sparsify] and pass those same
    overlays to [Check.certify_mcf] — the duality certificate is
    relative to the pruned tree space (see SCALING.md).

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
  ?sparsify:Sparsify.t ->
  ?warm_start:warm_start ->
  ?warm_zetas:float array ->
  Graph.t ->
  Overlay.t array ->
  epsilon:float ->
  scaling:demand_scaling ->
  result
