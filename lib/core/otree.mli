(** Overlay multicast trees.

    An overlay tree [t_j^i] spans the members of one session; each of
    its overlay edges is realized by a unicast route through the
    physical network.  [n_e t] counts how many times physical edge [e]
    appears across all routes of the tree — the multiplicity in the
    paper's capacity constraints (it can exceed 1). *)

type t = {
  session_id : int;
  pairs : (int * int) array;
  (** overlay edges as (member-slot, member-slot) with fst < snd,
      sorted — the canonical tree shape *)
  routes : Route.t array;  (** physical realization, aligned with [pairs] *)
  usage : (int * int) array;
  (** (physical edge id, n_e) pairs, sorted by edge id, n_e >= 1 *)
}

(** [build ~session_id ~pairs ~routes] canonicalizes and derives the
    usage table, in time [O(n log n + h log h)] for [n] pairs and [h]
    route edges in total.  Pairs are normalized to [fst < snd] and
    sorted; tied pairs keep their routes in the order a polymorphic
    [Array.sort compare] gives.  Raises [Invalid_argument] when [pairs]
    and [routes] disagree in length. *)
val build : session_id:int -> pairs:(int * int) array -> routes:Route.t array -> t

(** Reusable workspace for {!build_sorted}: a count per physical edge
    id and a {!Bitset} of the ids counted so far.  Between calls every
    count is zero and the set is empty, also after [build_sorted]
    raised.  A scratch belongs to one caller and must not be used by
    two domains at once: {!Overlay} gives every overlay value its own,
    including the copies [Overlay.with_session] makes. *)
type scratch

(** [scratch ~n_edges] serves trees whose route edge ids lie in
    [0 .. n_edges - 1]. *)
val scratch : n_edges:int -> scratch

(** [build_sorted s ~session_id ~pairs ~routes] is
    [build ~session_id ~pairs ~routes] for pairs already in canonical
    order: each pair has [fst < snd], and the pairs are strictly
    ascending, lexicographically.  It checks that order in O(n) and
    raises [Invalid_argument] if it does not hold, if [pairs] and
    [routes] differ in length, or if a route edge id lies outside the
    scratch.

    [usage] comes from counting the route edges into [s] and draining
    the distinct ids smallest first: O(n + h + w) time for [n] pairs,
    [h] route edges and [w] scratch words between the smallest and the
    largest edge id, with no sort.  The tree keeps [pairs] and [routes]
    themselves, not copies, so the caller must not change them
    afterwards.  The call allocates only the tree record and its usage
    table with its rows. *)
val build_sorted :
  scratch -> session_id:int -> pairs:(int * int) array -> routes:Route.t array -> t

(** [n_e t edge_id] is the multiplicity of a physical edge in the tree
    (0 when unused); O(log usage). *)
val n_e : t -> int -> int

(** [iter_usage t f] calls [f edge_id multiplicity] for every physical
    edge the tree touches. *)
val iter_usage : t -> (int -> int -> unit) -> unit

(** [weight t lens] is [sum_e n_e(t) * lens.(e)], summed over [usage]
    in edge-id order: the tree length under dual variables.  Allocates
    nothing. *)
val weight : t -> float array -> float

(** [bottleneck t caps] is [min_e caps.(e) / n_e(t)], the maximum rate
    the tree can carry alone (Table I line 10).  Allocates nothing. *)
val bottleneck : t -> float array -> float

(** [equal a b] is tree identity: the same overlay shape realized by
    the same routes.  It holds when [a == b], or when [a] and [b] have
    equal [pairs] and, index by index, routes that are physically equal
    or have equal edge-id arrays.  [session_id] is ignored, so one tree
    chosen by several sessions compares equal; [usage] follows from the
    routes.  Under arbitrary routing one shape can be realized by
    different routes over time, and those realizations are different
    trees.  Allocates nothing. *)
val equal : t -> t -> bool

(** [hash t] reads only [pairs]: within one IP overlay the pairs fix the
    routes, and in arbitrary mode the realizations of one shape share a
    hash, which {!equal} tells apart.  Allocates nothing. *)
val hash : t -> int

(** Hash tables keyed by tree value ({!equal}, {!hash}). *)
module Tbl : Hashtbl.S with type key = t

(** [n_overlay_edges t] is the number of overlay edges, [|S_i| - 1]. *)
val n_overlay_edges : t -> int

(** [is_spanning t ~n_members] checks the overlay edges form a spanning
    tree over member slots [0 .. n_members - 1]. *)
val is_spanning : t -> n_members:int -> bool

val pp : Format.formatter -> t -> unit
