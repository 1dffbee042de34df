(** MaxFlow — the FPTAS for the overlay maximum flow problem M1
    (Table I of the paper, after Garg–Könemann).

    Each iteration computes a minimum overlay spanning tree for every
    session under the dual lengths [d_e], picks the tree of minimum
    {e normalized} length (weighted by [(|S_max|-1)/(|S_i|-1)]), routes
    its bottleneck capacity, and multiplies the lengths of the touched
    physical edges by [1 + eps * n_e(t) * c / c_e].  The algorithm stops
    when the minimum normalized tree length reaches 1; the accumulated
    flow scaled by [log_{1+eps} ((1+eps)/delta)] is feasible and at
    least [(1 - 2 eps)] of optimal (Lemmas 1–3).  That is the default
    rule, {!Threshold}; {!Certificate} stops as soon as the run's own
    weak-duality certificate reaches [1 - eps] (see {!stop}).

    Lengths are maintained as [base * d'_e] with [log base] tracked
    separately, because the prescribed [delta] underflows doubles for
    small [eps] (e.g. approximation ratio 0.99). *)

type result = {
  solution : Solution.t;      (** feasible multi-tree flow, already scaled *)
  iterations : int;           (** augmentation count *)
  mst_operations : int;       (** total minimum-overlay-spanning-tree computations *)
  epsilon : float;            (** the [eps] the run was solved with *)
  dual_lengths : float array;
  (** final dual length per physical edge id, in the solver's internal
      scale: the real dual variable is
      [d_e = exp dual_ln_base *. dual_lengths.(e)].  Only length
      {e ratios} enter the LP-duality certificate (the dual objective
      [sum_e c_e d_e] divided by the minimum normalized tree length),
      so [Check.certify_max_flow] consumes this array directly and the
      shared [exp dual_ln_base] factor cancels — which is what makes
      the certificate computable even when [delta] underflows a double
      (ratio 0.99 and beyond).  Zero-capacity edges hold [infinity]:
      they can carry no flow, so the solver prices them out of every
      tree that can avoid them (the certificate's dual objective skips
      them). *)
  dual_ln_base : float;
  (** log of the common scale factor of [dual_lengths] (see above). *)
}

(** [ratio_to_epsilon r] maps a target approximation ratio [r] (e.g.
    0.95) to the [eps] achieving [(1 - 2 eps) = r]. *)
val ratio_to_epsilon : float -> float

(** Warm-start state for incremental re-solves: the dual lengths of a
    previous run on (a churn-perturbed version of) the same graph.

    The solver only consumes the {e shape} of [prev_lens] — magnitudes
    are renormalized on entry and [prev_ln_base] is folded away — and
    re-aims the scale so the minimum normalized tree length starts at
    [exp (-room)] instead of [delta].  The run then terminates after
    roughly [room / ln (1+eps)] dual doublings rather than the full
    [ln (1/delta) / ln (1+eps)] climb, which is the source of the
    re-solve speedup when the inherited shape is near-optimal.

    Feasibility is unconditional: the raw warm flow is normalized
    {e post hoc} to measured link saturation (the GK per-edge growth
    bound keeps the raw magnitudes in range for any initial lengths —
    DESIGN.md §12), so a warm result is always a valid flow.  The
    [(1 - 2 eps)] {e optimality} guarantee, by contrast, is only
    assured when [room] was large enough for the duals to re-converge —
    callers must re-validate every warm result with
    [Check.certify_max_flow] and escalate [room] (or fall back to a
    cold solve) on a duality-gap violation.  {!Engine} implements that
    ladder. *)
type warm_start = {
  prev_lens : float array;
      (** previous [result.dual_lengths]; length must equal the edge
          count, entries positive, and finite on every edge of positive
          capacity — [infinity] is accepted on zero-capacity edges,
          which the solver prices at [infinity] regardless (read-only,
          copied on entry) *)
  prev_ln_base : float;
      (** previous [result.dual_ln_base] — carried for provenance; the
          solver renormalizes, so only the shape of [prev_lens]
          matters *)
  room : float;
      (** dual headroom in nats ([> 0]): the warm run stops at the
          latest once the minimum normalized tree length has grown by
          [exp room] (under {!Certificate} it may stop earlier).
          Small values (1–4) give the largest speedups; too small a
          room under-converges and fails the certificate. *)
}

(** The stopping rule of a run.

    - [Threshold] (the default) is the paper's a-priori rule: a cold
      run stops when the minimum normalized tree length reaches 1 and
      scales its flow by [log_{1+eps} ((1+eps)/delta)]; a warm run
      stops after [room] nats and scales by measured congestion.
    - [Certificate] keeps both of those as upper bounds, and also
      stops once the run's own weak-duality certificate reaches
      [1 - eps]: right after each winner sweep, where the winner's
      normalized tree length is exactly [alpha(d)], the run stops if
      [primal / congestion >= (1 - eps) * D(d) / alpha(d)].  [primal]
      is the raw flow's objective, [congestion] its maximum
      load/capacity, and [D(d) = sum_e c_e d_e] over the edges of
      positive capacity; all three are kept up to date on the winning
      tree's edges only, and [D(d)] is re-summed from scratch before
      the run commits to a stop.  The test runs before routing, so the
      returned [dual_lengths] are the lengths it tested.  Cold or warm,
      the flow is then scaled by its measured congestion, so it is
      feasible; a run its certificate ended is, by weak duality, at
      least [(1 - eps)] of optimal against
      [Check.certify_max_flow]'s bound up to rounding: within the
      [(1 - 2 eps)] that Check certifies.  A run that reaches its
      threshold or [room] first ends as under [Threshold], except for
      the measured scaling.  The target is [1 - eps], not the claimed
      [1 - 2 eps]: a run stopped at [1 - 2 eps] is guaranteed only
      that, and its objective would sit visibly below a cold
      [Threshold] run's.  Registry counter [maxflow.certified_stops]
      counts the runs the certificate ended. *)
type stop = Threshold | Certificate

(** [solve graph overlays ~epsilon] runs MaxFlow over sessions sharing
    one physical graph.  All overlays must be built on [graph].
    [incremental] (default [true]) drives the overlays' incremental
    length engine — dual-length updates are pushed through the
    edge->route incidence index so each iteration only re-weighs the
    overlay edges its winning tree touched, and each iteration's winner
    sweep visits sessions best-first by their last weight, stopping at
    the first one that can no longer win.  The dual-length array is
    bound to the overlays ({!Overlay.begin_incremental}), dual updates
    are batched (one pass writing the length array, one notify pass
    through a merged incidence index), and weights / bottlenecks are
    read with the array variants; steady-state iterations — winner tree
    unchanged — allocate nothing.  [~incremental:false] forces the
    from-scratch recompute path and evaluates every session in every
    iteration: the reference the bench and the tests measure the engine
    against.  Given the same trees, both pick the same winner.  They are
    weight-exact, not tree-exact: where Prim has ties, the monotone skip
    ({!Overlay.notify_length_increase}) keeps the previous tree while a
    fresh Prim may pick another of equal weight, and from there the two
    runs can follow different (equally valid) trajectories.

    [obs] (default [Obs.Sink.null]) receives the run's event trace:
    [Run_start] (run name ["maxflow"], [a] = session count, [b] =
    epsilon), one [Iter_start]/[Iter_end] pair per accepted augmentation
    ([session] = winning slot, [a] = 1-based iteration index, [b] on
    [Iter_end] = flow routed), [Rescale] on renormalization, the
    overlays' [Mst_recompute]/[Mst_lazy_skip] events, then one
    [Session_rate] per slot and a final [Run_end] ([a] = iterations,
    [b] = overall throughput).  With the null sink the solver output is
    bit-identical to an uninstrumented run.  Raises [Invalid_argument]
    for [epsilon] outside (0, 0.5).

    [sparsify] (default [Sparsify.full]) is a convenience: any overlay
    whose recorded spec differs is rebuilt via {!Overlay.resparsify}
    before the run, so callers can prune without touching their overlay
    construction.  Under the default spec this is the identity — no
    historical call site changes behaviour.  Callers that certify the
    result against the overlays they hold should instead build the
    overlays with [Overlay.create ~sparsify] themselves and pass them
    here unchanged: the LP-duality certificate is only meaningful
    against the {e same} (pruned) candidate space the solver optimized
    over (see SCALING.md).

    [warm_start] (default absent — the cold path, bit-identical to
    builds predating the knob) seeds the duals from a previous run and
    replaces the a-priori feasibility scaling with the measured one;
    see {!warm_start} for the contract and the certification
    obligation.

    [stop] (default {!Threshold}, the paper's rule, which the paper
    tables, [overlay_cli solve] and every from-scratch reference use)
    picks the stopping rule; {!Engine} passes {!Certificate} on every
    MaxFlow run. *)
val solve :
  ?incremental:bool ->
  ?obs:Obs.Sink.t ->
  ?sparsify:Sparsify.t ->
  ?warm_start:warm_start ->
  ?stop:stop ->
  Graph.t ->
  Overlay.t array ->
  epsilon:float ->
  result

(** [solve_single graph overlay ~epsilon] runs the single-session
    special case and returns the session's maximum flow rate (the
    [zeta_i] of the concurrent-flow preprocessing) along with the full
    result.  [obs], [sparsify] and [warm_start] as in {!solve}; the
    stopping rule is always {!Threshold}. *)
val solve_single :
  ?incremental:bool ->
  ?obs:Obs.Sink.t ->
  ?sparsify:Sparsify.t ->
  ?warm_start:warm_start ->
  Graph.t ->
  Overlay.t ->
  epsilon:float ->
  float * result
