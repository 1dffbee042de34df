(** Random-MinCongestion — randomized rounding of the fractional M2
    solution (Table V), generalized to a budget of [M] trees per
    session (Sec. IV-A: a session split into [M] sub-commodities of
    demand [dem(i)/M], each routed on one tree).

    Trees are drawn with probability proportional to their fractional
    rates [f_j^i / sum_j f_j^i]; congestion indicators [l_e] accumulate
    [n_e(t) * dem / c_e]; finally each session's demand is scaled by its
    own maximum congestion [l^i_max], which is feasible (the per-edge
    congestion after scaling is at most 1). *)

type result = {
  solution : Solution.t;
  (** feasible rounded flow: each chosen tree carries
      [dem(i) / M / l^i_max] *)
  lmax : float;                       (** max congestion before scaling *)
  per_session_lmax : float array;     (** [l^i_max] per session slot *)
  distinct_trees : int array;         (** trees actually selected per session *)
}

(** [round rng graph ~fractional ~trees_per_session] draws
    [trees_per_session] trees per session (with replacement — the same
    tree may be selected more than once, as the paper notes) from the
    fractional solution and returns the scaled integral solution.
    Sessions whose fractional rate is zero are skipped (rate 0).

    [obs] (default [Obs.Sink.null]) receives [Run_start] (run name
    ["rounding"], [a] = session count, [b] = trees per session), one
    [Session_rate] per slot ([a] = rounded rate, [b] = the session's
    [l^i_max]) and [Run_end] ([a] = session count, [b] = [lmax]).  With
    the null sink the output is bit-identical to an uninstrumented run
    (in particular the RNG stream is untouched).

    Raises [Invalid_argument] if [trees_per_session < 1]. *)
val round :
  ?obs:Obs.Sink.t ->
  Rng.t ->
  Graph.t ->
  fractional:Solution.t ->
  trees_per_session:int ->
  result

(** [round_average rng graph ~fractional ~trees_per_session ~repeats]
    repeats the rounding and averages session rates, overall throughput
    and distinct-tree counts — the paper reports 100-run averages.
    Returns (mean session rates, mean overall throughput, mean distinct
    trees per session).  [obs] is passed to every {!round}.

    Each trial draws from its own RNG, split off [rng] in trial order,
    so a trial's stream depends only on its index. *)
val round_average :
  ?obs:Obs.Sink.t ->
  Rng.t ->
  Graph.t ->
  fractional:Solution.t ->
  trees_per_session:int ->
  repeats:int ->
  float array * float * float array
