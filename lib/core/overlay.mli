(** Per-session overlay context: the complete overlay graph [G_i] over a
    session's members and the machinery to extract the {e minimum overlay
    spanning tree} under the algorithms' dual length assignment [d_e].

    Two routing modes, matching Sec. II vs Sec. V of the paper:
    - [Ip]: every overlay edge is the fixed shortest-hop IP route,
      computed once; the tree length of an overlay edge under [d_e] is
      the sum of [d_e] along that fixed route.
    - [Arbitrary]: every overlay edge is the shortest path under the
      {e current} [d_e], recomputed on each query (one Dijkstra per
      member, the [|S_i| * T_spt] overhead of Sec. V-B) on a reusable
      workspace.

    Lengths are one [float array] indexed by physical edge id, the
    paper's [d_e]: every MST call reads the caller's array.

    {1 Incremental overlay-length engine (IP mode)}

    The FPTAS solvers change only the few dual lengths on the winning
    tree per iteration, yet a naive MST recomputes all O(k^2) overlay
    edge weights [sum_e n_e * d_e] by re-walking every fixed route.  The
    engine keeps a per-overlay-edge weight cache plus an inverted
    edge->route incidence index ({!Incidence}); solvers activate it with
    {!begin_incremental}, binding their dual-length array, and then
    announce every length change through {!notify_length_update} (or
    {!notify_rescale} after a global renormalization), so an MST call
    only re-walks the routes actually invalidated, and a lazy Prim
    re-walks only those whose stale weight is still competitive.
    Refreshes sum each route's edges left to right, so cached weights
    stay bit-identical to a from-scratch recomputation.  With the
    engine off, every overlay edge is dirty on each call: its weight is
    re-summed over the caller's array and an eager Prim runs.  The
    monotone skip of {!notify_length_increase} keeps a tree of minimum
    weight but not always the one a fresh Prim would pick among
    equal-weight trees.  A debug cross-check mode ({!set_cross_check},
    or environment variable [OVERLAY_CROSS_CHECK=1]) verifies that
    invariant on every MST call. *)

type mode = Ip | Arbitrary

type t

(** [create ?sparsify graph mode session] builds the context.  In [Ip]
    mode the route table, the per-overlay-edge fixed routes and the
    edge->route incidence index are computed here (shortest-hop,
    deterministic).  Raises [Failure] when members are disconnected.

    [sparsify] (default {!Sparsify.full}) selects the candidate overlay
    edge set.  The default — and any spec for which [Sparsify.is_full]
    holds — takes the historical complete-overlay path and is
    bit-identical to builds predating the knob.  A pruning spec keeps
    only the selected member pairs (always a connected superset of the
    latency MST, see {!Sparsify.select}); the overlay graph, route
    table ({!Ip_routing.compute_pairs}: sparse, with on-demand fills
    for baselines that ask for pruned pairs), CSR views and incidence
    index all shrink with it, which is what takes per-session cost from
    [O(k^2)] toward [O(k log k)].  Solvers are oblivious — they only
    ever ask for minimum spanning trees, which now range over the
    pruned candidate space; see SCALING.md for the quality/speed
    trade-off and the certification caveat. *)
val create : ?sparsify:Sparsify.t -> Graph.t -> mode -> Session.t -> t

(** [with_session t session] reuses [t]'s routing state (the IP route
    table, fixed routes and incidence index in [Ip] mode) for a replica
    session with the {e same} member array — the online experiments
    replicate sessions many times and recomputing identical route tables
    dominates otherwise.  The copy has its own operation counters and
    weight cache, with the incremental engine off.  Raises
    [Invalid_argument] when the member arrays differ. *)
val with_session : t -> Session.t -> t

(** [session t] is the session the context was built for. *)
val session : t -> Session.t

(** [mode t] is the routing mode fixed at {!create}. *)
val mode : t -> mode

(** [graph t] is the physical graph the context was built on. *)
val graph : t -> Graph.t

(** {2 Sparsification} *)

(** [sparsify t] is the spec the context was built under
    ({!Sparsify.full} unless {!create} was told otherwise).
    {!with_session} replicas inherit it. *)
val sparsify : t -> Sparsify.t

(** [n_overlay_edges t] is the size of the candidate overlay edge set:
    [k (k-1) / 2] for a full build, the kept pair count after
    pruning. *)
val n_overlay_edges : t -> int

(** [overlay_pairs t] is a fresh copy of the candidate member-slot
    pairs, lexicographically sorted ([a < b]), indexed by overlay edge
    id.  Property tests use it to check pruned connectivity. *)
val overlay_pairs : t -> (int * int) array

(** [candidate_route t oe] is the fixed IP route of candidate overlay
    edge [oe]: the route between the members of slots [a] and [b],
    where [(a, b) = (overlay_pairs t).(oe)].  The route is the
    overlay's own, shared and not copied:
    read it, never mutate it.  Raises [Invalid_argument] in [Arbitrary]
    mode, whose routes depend on the lengths of each query. *)
val candidate_route : t -> int -> Route.t

(** {2 Telemetry} *)

(** [set_sink t sink] directs this context's trace events
    ([Mst_recompute] with the weight re-walks spent, [Mst_lazy_skip]
    when the monotone skip answers from the previous tree — see
    {!Obs.kind}) to [sink].  The solvers install their sink for the
    duration of a run; the default is [Obs.Sink.null], under which
    emission costs one branch.  Registry counters ([overlay.mst_ops],
    [overlay.weight_ops], [overlay.mst_recomputes],
    [overlay.mst_lazy_skips]) are always maintained regardless of the
    sink. *)
val set_sink : t -> Obs.Sink.t -> unit

(** [clear_sink t] resets the sink to [Obs.Sink.null]. *)
val clear_sink : t -> unit

(** [min_spanning_tree t lens] computes the minimum overlay spanning
    tree under the physical edge lengths [lens] (indexed by edge id of
    [t]'s graph, every entry non-negative), as an overlay tree with
    realized routes.  Each call counts as one MST operation.  With the
    engine off, every overlay edge is re-weighed over [lens].  With the
    incremental engine on, [lens] must be the array bound by
    {!begin_incremental} (physically; [Invalid_argument] otherwise),
    and only overlay edges invalidated since the previous call are
    re-weighed, and only when Prim reaches them. *)
val min_spanning_tree : t -> float array -> Otree.t

(** [tree_of_pairs t ~pairs lens] realizes an arbitrary overlay
    spanning tree shape (member-slot pairs) with routes chosen per the
    mode; used by baselines and enumeration oracles.  [lens] only
    matters in [Arbitrary] mode, where it prices the shortest
    paths. *)
val tree_of_pairs : t -> pairs:(int * int) array -> float array -> Otree.t

(** {2 Incremental engine control} *)

(** [begin_incremental t lens] turns the engine on and binds [lens]:
    from now until {!end_incremental}, every {!min_spanning_tree} call
    must pass [lens] itself, and the caller announces every change to
    [lens] via {!notify_length_update} / {!notify_rescale}.  All cached
    weights are invalidated on activation, so any previous length state
    is forgotten.  The cross-check debug flag ([OVERLAY_CROSS_CHECK])
    re-derives every cached weight by a fresh sum over [lens] and fails
    loudly on a missed notification.  No-op in [Arbitrary] mode. *)
val begin_incremental : t -> float array -> unit

(** [end_incremental t] turns the engine off and unbinds the length
    array; subsequent MST calls re-weigh every overlay edge over the
    array they are given. *)
val end_incremental : t -> unit

(** [notify_length_update t edge] marks the overlay edges whose fixed
    route traverses physical [edge] as stale — O(incident overlay
    edges) via the incidence index.  No-op when the engine is off or in
    [Arbitrary] mode. *)
val notify_length_update : t -> int -> unit

(** [notify_length_increase t edge] is {!notify_length_update} with the
    additional promise that the length of [edge] did not decrease.  The
    Garg–Könemann solvers only ever grow dual lengths between rescales,
    and under increase-only staleness the engine can skip both the
    refresh and the Prim run entirely while no overlay edge of the
    previously returned tree is stale, and return that tree (cycle
    property: increasing the weight of a non-tree edge leaves the tree
    minimum).  The skip is weight-exact, not tree-exact: where weights
    tie, a fresh Prim may return a different tree of the same weight.
    Using this for a
    decrease silently corrupts the returned trees — when in doubt, call
    {!notify_length_update}. *)
val notify_length_increase : t -> int -> unit

(** One notify pass for many overlays: every physical edge maps to the
    overlay edges, across all the given [Ip] overlays, whose fixed
    route traverses it.  Built from the overlays' incidence indexes;
    [Arbitrary] overlays contribute nothing. *)
type notify_index

(** [notify_index ts] builds the index over [ts] (all on one graph).
    The solvers build one per run. *)
val notify_index : t array -> notify_index

(** [notify_usage idx usage] is {!notify_length_increase} of every edge
    of a winning tree's usage table [(edge, multiplicity) array] on
    every overlay of [idx], in one sweep.  Equivalent to notifying each
    overlay edge by edge: dirty sets are unions, and an overlay whose
    engine is off or whose cache is wholly invalid refreshes every
    weight at its next MST call anyway.  Allocates nothing. *)
val notify_usage : notify_index -> (int * int) array -> unit

(** [notify_rescale t] invalidates the whole cache; used after a global
    multiplicative renormalization of the length function (scaling a
    cached float would diverge from a fresh summation in the last ulp,
    so the engine re-derives instead — rescales are rare). *)
val notify_rescale : t -> unit

(** [set_cross_check enabled] toggles the debug mode in which every
    incremental MST call re-derives all weights from scratch and raises
    [Failure] on any divergence from the cache (i.e. a missed
    notification).  The toggle is the [overlay.cross_check] entry of
    {!Obs.Debug_flags} (environment variable [OVERLAY_CROSS_CHECK=1]),
    so it is discoverable with every other debug flag through
    [Obs.Debug_flags.all].  Global to the process. *)
val set_cross_check : bool -> unit

(** [cross_check_enabled ()] reads the current state of the
    [overlay.cross_check] debug flag. *)
val cross_check_enabled : unit -> bool

(** {2 Bounds and counters} *)

(** [max_route_hops t] is an upper bound on the hop length of any
    unicast route the context can produce — the paper's [U].  Exact for
    [Ip] mode; [|V| - 1] in [Arbitrary] mode. *)
val max_route_hops : t -> int

(** [covered_edges t] is the sorted set of physical edges reachable by
    this session's routes.  In [Ip] mode these are exactly the edges of
    the fixed routes; in [Arbitrary] mode all edges may be used. *)
val covered_edges : t -> int array

(** [mst_operations t] is the number of [min_spanning_tree] calls so
    far (the paper's running-time metric); [reset_mst_operations]
    clears it. *)
val mst_operations : t -> int

val reset_mst_operations : t -> unit

(** [total_mst_operations ts] sums the counters. *)
val total_mst_operations : t array -> int

(** [weight_operations t] counts per-overlay-edge weight computations
    (one full route re-walk, or one snapshot distance read in
    [Arbitrary] mode) — the unit the incremental engine reduces. *)
val weight_operations : t -> int
