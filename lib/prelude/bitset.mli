(** Sets of ints in [0 .. n-1], one bit each, drained smallest first.

    Built for ordering a few ids drawn from a large range without a
    comparison sort: add them in any order, then {!pop_min} returns
    them ascending.  A drain costs one step per id plus one per 32-id
    word between the smallest and the largest id, because the set
    remembers the lowest word that can hold a bit.  Only {!create}
    allocates. *)

type t

(** [create n] is the empty set over [0 .. n-1]. *)
val create : int -> t

(** [add t i] puts [i] in the set.  Raises [Invalid_argument] when [i]
    is outside [0 .. n-1]. *)
val add : t -> int -> unit

(** [pop_min t] removes and returns the smallest member, or [-1] when
    the set is empty. *)
val pop_min : t -> int

(** [clear t] empties the set, in time proportional to [n / 32]. *)
val clear : t -> unit
