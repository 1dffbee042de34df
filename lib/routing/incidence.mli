(** Inverted edge->route incidence index.

    Given the fixed physical routes behind a set of overlay edges (one
    [Route.t] per overlay edge id), the index answers "which overlay
    edges does physical edge [e] carry, and how many times?" in O(1) —
    the multiplicity is the per-route [n_e] of the paper's capacity
    constraints.

    This is the core lookup of the incremental overlay-length engine:
    when a dual length [d_e] changes, only the overlay edges incident to
    [e] can change their tree length [sum n_e * d_e], so only those need
    their cached weights refreshed.  Built once per overlay context at
    creation; immutable afterwards.

    Two engine invariants rest on this index being {e complete} (every
    traversal of every route is recorded):

    - {b Delta-update}: an overlay edge whose cache bit is clean has
      [cached_w] equal to the sum of the caller's current length array
      over its route — possible only because every length change
      reaches every dependent overlay edge through [iter_incident].
    - {b Increase-only laziness}: when the caller promises lengths only
      grew ([Overlay.notify_length_increase]), a stale cached weight is
      a {e lower bound} on the true weight.  The engine then skips Prim
      entirely while no tree edge is stale (cycle property), and the
      lazy Prim ([Flat.Prim.lazy_routes_into]) re-walks a route only
      when its stale bound beats the current candidate key — decisions
      identical to the eager run.
      A missed incidence entry would silently break both; the
      [overlay.cross_check] debug flag exists to catch that. *)

type t

(** [build ~n_edges routes] indexes [routes] (indexed by overlay edge
    id) over physical edge ids [0 .. n_edges - 1].  Raises
    [Invalid_argument] when a route mentions an out-of-range edge. *)
val build : n_edges:int -> Route.t array -> t

(** [incident t e] is a fresh sorted array of the overlay edge ids whose
    route traverses physical edge [e] (empty when uncovered). *)
val incident : t -> int -> int array

(** [degree t e] is the number of distinct overlay edges over [e]. *)
val degree : t -> int -> int

(** [iter_incident t e f] calls [f overlay_edge multiplicity] for each
    incident overlay edge, in ascending overlay edge id order, without
    allocating. *)
val iter_incident : t -> int -> (int -> int -> unit) -> unit

(** [multiplicity t e oid] is how many times overlay edge [oid]'s route
    traverses physical edge [e] (0 when it does not). *)
val multiplicity : t -> int -> int -> int

(** [n_edges t] is the physical edge universe the index was built
    over. *)
val n_edges : t -> int
