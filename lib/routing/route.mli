(** A unicast route through the physical network: the ordered physical
    edge ids of the path between two end hosts.  Overlay edges map onto
    routes; a physical link may appear in many routes of the same overlay
    tree, which is exactly the [n_e(t) > 1] effect the paper models. *)

type t = {
  src : int;
  dst : int;
  edges : int array;  (** physical edge ids, in path order from [src] *)
}

(** [make ~src ~dst edges] builds a route; [src = dst] must have no
    edges. *)
val make : src:int -> dst:int -> int array -> t

(** [hops t] is the number of physical links traversed. *)
val hops : t -> int

(** [weight t ~length] sums an edge length function over the route. *)
val weight : t -> length:(int -> float) -> float

(** [reverse t] is the same path viewed from [dst]. *)
val reverse : t -> t

(** [mem t edge_id] tests whether a physical edge lies on the route. *)
val mem : t -> int -> bool

(** [iter_edges t f] visits the physical edge ids in order. *)
val iter_edges : t -> (int -> unit) -> unit

(** [is_valid g t] checks the edges form a contiguous path from [src] to
    [dst] in [g].  An edge id outside [0 .. n_edges g - 1] makes the
    route invalid; [is_valid] never raises.  O(hops), no allocation. *)
val is_valid : Graph.t -> t -> bool

(** [bottleneck t ~capacity] is the minimum capacity along the route
    ([infinity] for the empty route). *)
val bottleneck : t -> capacity:(int -> float) -> float

val pp : Format.formatter -> t -> unit
