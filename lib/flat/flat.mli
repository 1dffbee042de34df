(** Cache-flat compute kernel for the FPTAS hot path.

    The Garg–Könemann loop — minimum overlay spanning tree under the
    dual lengths [d_e], push flow, bump lengths along the winning tree —
    runs tens of thousands of iterations on small graphs, so wall clock
    is dominated by constant factors: pointer chasing through adjacency
    records, a closure call per Prim relaxation, and per-iteration
    allocation ([int list] tree results, boxed floats).  This module is
    the flat counterpart: every structure the inner loop touches is an
    int/float array built once per overlay context, and every operation
    writes into caller-provided buffers.

    {b Equivalence contract.}  Each flat operation is bit-identical to
    its record-path twin — same visit order, same tie-breaks, same
    floating-point operation order:

    - [Csr] iterates a vertex's incident edges in exactly the order of
      {!Graph.iter_neighbors} (it is built by recording that order).
    - [Routes.weight] sums a route's edge lengths left-to-right like
      {!Route.weight}.
    - [Inc] replays {!Incidence.iter_incident} order (ascending overlay
      edge id).
    - [Prim.into] replays {!Mst.prim} decision-for-decision, including
      the negative length check and disconnection failure, and bumps
      the same [graph.prim_runs] counter.  [Prim.lazy_routes_into]
      picks what [Prim.into] picks on the exact lengths, raises the
      same errors, and counts [graph.prim_lazy_runs].

    The overlay engine's cross-check debug flag ([OVERLAY_CROSS_CHECK])
    re-derives every cached weight by a fresh left-to-right sum over
    the bound length array, walking the {!Route.t} itself, and fails on
    any divergence, so a broken flat invariant is caught, not
    absorbed.

    {b Allocation contract.}  Construction ([Csr.of_graph],
    [Routes.of_routes], [Inc.of_incidence], [Prim.ws]) allocates; the
    per-iteration operations ([Prim.into], [Prim.lazy_routes_into])
    allocate {e nothing} — no closures, no
    boxed floats, no intermediate lists.  [Routes.weight] returns a
    float, which is boxed wherever a call from another module is not
    inlined (always, under [-opaque]).  [bench/main.ml]'s
    [steady_state_words] gate measures this at < 8 minor words per
    steady-state solver iteration.

    {b Workspace ownership.}  The arrays of a {!Csr.t}, {!Routes.t} or
    {!Inc.t} are immutable after construction and may be shared freely
    across domains.  A {!Prim.ws} is mutable scratch: it is owned by
    exactly one overlay evaluation at a time (every overlay value has
    its own). *)

module Csr : sig
  (** Compressed-sparse-row view of an undirected {!Graph.t}: vertex
      [v]'s incident half-edges live at indices [off.(v) .. off.(v+1)-1]
      of [dst] (neighbor vertex) and [eid] (edge id), in
      {!Graph.iter_neighbors} order. *)
  type t = private {
    n : int;            (** vertex count *)
    off : int array;    (** length [n+1]; CSR row offsets *)
    dst : int array;    (** neighbor endpoint per half-edge *)
    eid : int array;    (** edge id per half-edge *)
  }

  (** [of_graph g] snapshots [g]'s adjacency.  Graphs are append-only
      after construction in this codebase; build once per solver run. *)
  val of_graph : Graph.t -> t
end

module Routes : sig
  (** Concatenated edge-id lists of a route table, indexed by overlay
      edge id: route [oe]'s physical edges are
      [edge.(off.(oe)) .. edge.(off.(oe+1)-1)] in traversal order. *)
  type t = private {
    off : int array;
    edge : int array;
  }

  val of_routes : Route.t array -> t

  (** [weight t oe lens] is route [oe]'s length under the edge-indexed
      length array [lens], summed left-to-right — bit-identical to
      [Route.weight route ~length:(fun id -> lens.(id))]. *)
  val weight : t -> int -> float array -> float
end

module Inc : sig
  (** Flattened {!Incidence.t}: physical edge [e]'s incident overlay
      edges are [oedge.(off.(e)) .. oedge.(off.(e+1)-1)] (ascending
      overlay edge id) with aligned multiplicities [mult]. *)
  type t = private {
    off : int array;
    oedge : int array;
    mult : int array;
  }

  val of_incidence : Incidence.t -> t
end

module Prim : sig
  (** Reusable Prim working set: best-edge table and one indexed heap
      whose vertex-to-slot table also marks tree vertices, sized for a
      fixed vertex count.  Not thread-safe — one workspace per
      concurrently evaluated overlay. *)
  type ws

  (** [ws ~n] builds a working set for [n]-vertex trees. *)
  val ws : n:int -> ws

  (** [into ws csr ~w ~edges] runs Prim from vertex 0 over [csr] with
      edge lengths [w], writing the chosen edge ids into [edges] (in
      pick order, [csr.n - 1] of them).  Bit-identical trajectory to
      [Mst.prim g ~length:(fun id -> w.(id))].  Allocates nothing (it
      returns no tree weight: a float returned across a module
      boundary is boxed).  Raises [Invalid_argument] on a negative
      length and [Failure] when the graph is disconnected. *)
  val into : ws -> Csr.t -> w:float array -> edges:int array -> unit

  (** [lazy_routes_into ws csr ~w ~dirty ~routes ~lens ~edges] is [into]
      with stale lower bounds: [w.(id)] may be stale (marked by
      [dirty.(id)]) as long as stale values are lower bounds on the
      exact lengths [Routes.weight routes id lens].  A relaxation first
      tests the stale bound against the current key, and only a
      promising dirty edge is refreshed in place ([w.(id) <-
      Routes.weight routes id lens], [dirty.(id) <- false]); edges whose
      bound already loses stay dirty.  The picks in [edges] are those of
      [Mst.prim] on the exact lengths; returns the number of refreshes.
      Raises like [into] (a negative length is detected only on an edge
      it reads exactly).  The overlay engine runs it whenever the engine
      is on and every stale weight stems from an increase. *)
  val lazy_routes_into :
    ws ->
    Csr.t ->
    w:float array ->
    dirty:bool array ->
    routes:Routes.t ->
    lens:float array ->
    edges:int array ->
    int
end
