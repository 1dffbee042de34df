(** Arbitrary (dynamic) unicast routing of Sec. V.

    When the fixed-IP-routing assumption is dropped, the unicast path
    behind an overlay edge is the shortest path under the {e current}
    dual length assignment [d_e].  This module computes, for a member
    set, the pairwise shortest routes under a caller-supplied length
    function — one Dijkstra per member, [|S_i| * T_spt] as the paper
    notes.

    Snapshot construction is the hot inner kernel of arbitrary-mode MST
    operations, so it can run on a reusable {!workspace} (preallocated
    Dijkstra state plus a dense vertex->slot array) that removes all
    O(n) per-snapshot allocation. *)

type snapshot

(** Preallocated construction state, reusable across snapshots of the
    same graph. *)
type workspace

(** [workspace g] sizes a workspace for [g]. *)
val workspace : Graph.t -> workspace

(** [routes g ~members ~length] computes shortest routes among members
    under [length].  Edges with [infinity] length are unusable.  Raises
    [Failure] when a pair is disconnected, [Invalid_argument] on
    duplicate or out-of-range members or a negative length. *)
val routes : Graph.t -> members:int array -> length:(int -> float) -> snapshot

(** [routes_ws ws g ~members ~length] is {!routes} without the O(n)
    allocations: Dijkstra state, the member-slot table and the
    installed-member buffer live in [ws].  The returned snapshot
    borrows the slot table, so it is only valid until the next
    [routes_ws] call on the same workspace.  Lengths are validated
    once per call, not once per member. *)
val routes_ws :
  workspace -> Graph.t -> members:int array -> length:(int -> float) -> snapshot

(** [route s u v] is the route between two member vertices in this
    snapshot.  Raises [Invalid_argument] naming the vertex when [u] or
    [v] is not a member. *)
val route : snapshot -> int -> int -> Route.t

(** [distance s u v] is the length of that route under the snapshot's
    length function.  Raises like {!route} for non-members. *)
val distance : snapshot -> int -> int -> float

(** [members s] is the member set. *)
val members : snapshot -> int array
