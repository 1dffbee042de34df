(** Minimum spanning trees.

    Prim with an indexed heap is the reference for the FPTAS hot path:
    the overlay's flat kernel ([Flat.Prim]) replays it decision for
    decision, and tree packing calls it directly. Kruskal is kept as an
    independent implementation for cross-checking and for sparse
    graphs. *)

(** Result of a spanning-tree computation. [edges] holds the chosen
    edge ids (for Prim, in pick order); [weight] is their total
    length. *)
type result = { edges : int array; weight : float }

(** [prim g ~length] computes an MST of a {e connected} graph under the
    given edge length function; O(m log n). Raises [Failure] when the
    graph is disconnected. Deterministic: among equal-length candidates
    the earliest-relaxed wins. *)
val prim : Graph.t -> length:(int -> float) -> result

(** [kruskal g ~length] computes an MST via sorting + union-find;
    O(m log m). Raises [Failure] when disconnected. Ties break on lower
    edge id, so results are deterministic (possibly a different — equally
    minimal — tree than Prim's). *)
val kruskal : Graph.t -> length:(int -> float) -> result

(** [spanning_tree_exists g] is connectivity of [g]. *)
val spanning_tree_exists : Graph.t -> bool

(** [tree_weight ~length edges] sums lengths over edge ids. *)
val tree_weight : length:(int -> float) -> int array -> float

(** [is_spanning_tree g edges] checks that the edge ids form a spanning
    tree of [g]: n-1 edges, acyclic, connected. *)
val is_spanning_tree : Graph.t -> int array -> bool
