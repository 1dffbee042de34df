(** Independent solver certification kernel.

    Every solver in [lib/core] promises a structured guarantee —
    feasibility plus, for the Garg–Könemann FPTAS pair, a
    [(1 - O(eps))] approximation factor — yet [Solution.is_feasible]
    only re-checks link loads using the solution's own accounting.
    This module re-derives everything from scratch and trusts nothing
    the solvers computed:

    - physical link loads are recomputed by re-walking every route of
      every tree (re-counting the [n_e(t)] multiplicities, in both IP
      and arbitrary routing modes) instead of reading the trees' usage
      tables — and the usage tables are cross-checked against the
      recount;
    - every tree is verified to be a true spanning tree of its
      session's overlay (pair bounds, no duplicate edges, exactly
      [|S_i| - 1] edges, connected), with each overlay edge realized by
      a contiguous physical route between the right members;
    - for MaxConcurrentFlow, the demand-scaling semantics of
      [Proportional] vs [Maxflow_weighted] preprocessing are re-derived
      from the [zetas] and checked against the working demands the main
      loop actually routed (including [T]-horizon doublings);
    - for both FPTAS solvers, the weak LP-duality certificate is
      checked: the final dual lengths give the upper bound
      [OPT <= sum_e c_e d_e / alpha(d)] (with [alpha] the minimum
      normalized tree length under [d]), so
      [primal >= (1 - O(eps)) * dual_bound] certifies the claimed
      approximation factor against an {e independently computable}
      optimum bound, and [primal <= dual_bound] is weak duality itself.
      [alpha] comes from this module's own minimum spanning tree
      ({!min_tree_weight}), never from the solvers' MST engine, so a
      solver that returned heavier trees than the minimum could not
      lower the bound it is measured against.

    The result is a structured verdict naming each violation rather
    than a bool, so failures are actionable and testable. *)

(** The conventional feasibility tolerance used across the repository's
    tests and the CLI: loads may exceed capacity by a relative
    [default_tol] (see [Solution.is_feasible]).  Centralized here so the
    test-suite stops growing ad-hoc [1e-6] literals. *)
val default_tol : float

type violation =
  | Negative_rate of { slot : int; rate : float }
      (** a tree of session [slot] carries a negative rate *)
  | Wrong_session of { slot : int; tree_session_id : int; expected : int }
      (** a tree filed under [slot] claims another session's id *)
  | Not_spanning of { slot : int; n_members : int; detail : string }
      (** the overlay edges do not form a spanning tree over the
          session's member slots *)
  | Route_endpoints of {
      slot : int;
      pair : int * int;
      src : int;
      dst : int;
      expected_src : int;
      expected_dst : int;
    }
      (** the physical route realizing overlay edge [pair] does not
          connect the members the pair names *)
  | Broken_route of { slot : int; pair : int * int }
      (** the route's edge ids do not form a contiguous physical path *)
  | Usage_mismatch of { slot : int; edge : int; claimed : int; recomputed : int }
      (** a tree's usage table disagrees with a recount of its routes *)
  | Overload of { edge : int; load : float; capacity : float }
      (** recomputed load exceeds capacity beyond tolerance *)
  | Weak_duality of { primal : float; dual_bound : float }
      (** the primal objective exceeds the dual upper bound — one of
          the two is corrupt *)
  | Duality_gap of {
      primal : float;
      dual_bound : float;
      claimed : float;  (** the promised factor, [1-2eps] or [1-3eps] *)
      achieved : float; (** measured [primal /. dual_bound] *)
    }
      (** the run did not meet its advertised approximation factor *)
  | Scaling_violation of { slot : int; expected : float; actual : float; detail : string }
      (** MCF working demands disagree with the re-derived
          demand-scaling semantics *)

type verdict = {
  violations : violation list;  (** empty iff the certificate holds *)
  checked_sessions : int;
  checked_trees : int;
  max_congestion : float;
      (** max load/capacity, recomputed from routes (0 when empty) *)
  primal : float option;        (** objective, when duality was checked *)
  dual_bound : float option;    (** independent optimum upper bound *)
}

(** [ok v] is [v.violations = []]. *)
val ok : verdict -> bool

val pp_violation : Format.formatter -> violation -> unit
val pp_verdict : Format.formatter -> verdict -> unit

(** [violation_name v] is a stable short tag ("negative_rate",
    "not_spanning", ...) for reports and tests. *)
val violation_name : violation -> string

(** [certify graph solution] re-derives the structural certificate:
    spanning trees, route integrity, multiplicity recount, and
    feasibility of the recomputed loads within [tol]
    (default {!default_tol}).  No duality check — use the
    solver-specific entry points for that.

    {b Cost.}  One workspace per call: four [int] arrays over the
    physical edges and a union-find over the largest session's member
    slots.  Each tree then costs [O(n + h)] time for [n] overlay edges
    and [h] route edges: the union-find uses path halving, and the
    recount writes into the workspace arrays, versioned by a per-tree
    stamp so nothing is cleared between trees.  A tree adds
    [count * rate] to each physical edge's load once, in the order
    {!Solution.trees} lists the trees.  On well-formed trees the words
    allocated per tree are a small constant, independent of route
    length; only violations allocate beyond that.  Route edge ids
    outside the graph are reported ([Broken_route] and
    [Usage_mismatch]) and never used as an index, and a pair without a
    route is a [Broken_route]: [certify] returns a verdict for any
    solution and does not raise. *)
val certify : ?tol:float -> Graph.t -> Solution.t -> verdict

(** [min_tree_weight overlay lens] is the minimum, over the spanning
    trees of [overlay]'s candidate pairs ({!Overlay.overlay_pairs}), of
    the tree's length under the physical edge lengths [lens]: the sum,
    over the tree's pairs, of each pair's route length.  In [Ip] mode a
    pair's route is its fixed route ({!Overlay.candidate_route}),
    summed left to right; in [Arbitrary] mode it is the shortest path
    under [lens], from {!Dijkstra}.  Kruskal on this module's
    union-find, sharing no code with the overlay's Prim or its tree
    memo, and no MST operation is counted.  [infinity] when the pairs
    do not span the members.  Raises [Invalid_argument] on a negative
    length in [Arbitrary] mode. *)
val min_tree_weight : Overlay.t -> float array -> float

(** [certify_max_flow graph overlays result] runs {!certify} and then
    checks the weak-duality certificate of a {!Max_flow.solve} run: the
    dual bound is [sum_e c_e d_e / alpha(d)] with [alpha(d)] the
    minimum over sessions of the minimum overlay-spanning-tree length
    under [result.dual_lengths], normalized by
    [(|S_max|-1)/(|S_i|-1)]; the primal is the weighted throughput
    [sum_i (|S_i|-1) rate_i / (|S_max|-1)].  Certifies
    [primal <= dual_bound] and [primal >= (1 - 2 eps) * dual_bound].
    [overlays] must be the contexts the run solved (same sessions, same
    routing mode); their MSTs under the final lengths are recomputed
    here by {!min_tree_weight}.  Raises [Invalid_argument] when
    overlays and solution disagree on the session set. *)
val certify_max_flow :
  ?tol:float -> Graph.t -> Overlay.t array -> Max_flow.result -> verdict

(** [certify_mcf graph overlays ~scaling result] runs {!certify}, then
    re-derives the working-demand vector from [result.zetas] under
    [scaling] and checks the main loop routed a power-of-two multiple
    of it ({!Max_concurrent_flow.demand_scaling} semantics plus
    [T]-horizon doublings), and finally checks the concurrent-flow
    duality certificate in the working-demand direction: the primal is
    [min_i rate_i / working_i], the dual bound
    [sum_e c_e d_e / sum_i working_i * mintree_i(d)], and the run must
    achieve [(1 - 3 eps)] of it.  Raises [Invalid_argument] when
    overlays and solution disagree on the session set. *)
val certify_mcf :
  ?tol:float ->
  Graph.t ->
  Overlay.t array ->
  scaling:Max_concurrent_flow.demand_scaling ->
  Max_concurrent_flow.result ->
  verdict
