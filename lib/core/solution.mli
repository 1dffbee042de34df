(** Multi-tree flow assignments: the output format of every algorithm.

    A solution maps each session to a set of overlay trees with rates
    [f_j^i >= 0].  Rates on the same tree accumulate, which is how the
    paper counts "number of trees"; "the same tree" is {!Otree.equal},
    the same overlay shape realized by the same routes.

    Each session keeps its trees in first-add order: the order in which
    {!add} first saw them.  Every per-session walk below ({!session_rate},
    {!trees}, {!tree_rates}, {!link_load}, {!scale}, {!merge_from},
    {!copy}) follows that order, so each sum has one documented order. *)

type t

(** [create sessions] starts an empty solution over the session set. *)
val create : Session.t array -> t

(** [sessions t] is the underlying session array (not copied). *)
val sessions : t -> Session.t array

(** [add t tree rate] adds [rate] to tree [tree] of its session.  A
    tree not yet in the session ({!Otree.equal}) takes the next slot;
    a zero rate adds nothing.  Negative rates are rejected.  Adding to
    a known tree allocates nothing. *)
val add : t -> Otree.t -> float -> unit

(** [scale t factor] multiplies every rate. *)
val scale : t -> float -> unit

(** [scale_session t i factor] multiplies the rates of session [i]. *)
val scale_session : t -> int -> float -> unit

(** [session_rate t i] is [sum_j f_j^i], summed from [0.0] in
    first-add order. *)
val session_rate : t -> int -> float

(** [rates t] is the per-session rate vector. *)
val rates : t -> float array

(** [min_rate t] is the minimum session rate. *)
val min_rate : t -> float

(** [overall_throughput t] is the paper's aggregate receiving rate:
    [sum_i (|S_i| - 1) * session_rate i]. *)
val overall_throughput : t -> float

(** [concurrent_ratio t] is [min_i session_rate i / dem(i)] — the
    objective value f of problem M2. *)
val concurrent_ratio : t -> float

(** [n_trees t i] is the number of distinct trees with positive rate in
    session [i]. *)
val n_trees : t -> int -> int

(** [tree_rates t i] lists the positive rates of session [i]'s trees,
    in first-add order. *)
val tree_rates : t -> int -> float array

(** [trees t i] lists session [i]'s (tree, rate) pairs with positive
    rate, in first-add order. *)

(** [equal a b] holds when [a] and [b] have as many sessions and each
    session lists the same {!trees}, in the same order: trees
    {!Otree.equal}, rates equal bit for bit.  It is the exact
    solver-output comparison. *)
val equal : t -> t -> bool
val trees : t -> int -> (Otree.t * float) list

(** [link_load t g] is the physical load per edge id:
    [sum over trees of n_e(tree) * rate]. *)
val link_load : t -> Graph.t -> float array

(** [max_congestion t g] is [max_e load(e) / capacity(e)] (0 for an
    empty solution). *)
val max_congestion : t -> Graph.t -> float

(** [is_feasible t g ~tol] checks every link load is within capacity
    times [1 +. tol] — i.e. [max_congestion t g <= 1.0 +. tol].  The
    tolerance is {e relative} and absorbs the float rounding of the
    FPTAS scaling passes; it is not slack for genuinely overloaded
    links.  Callers should pass [Check.default_tol] unless they need
    exact arithmetic ([~tol:0.0] on hand-built rational instances).
    Note this trusts the solution's own usage accounting; use
    [Check.certify] to re-derive loads from the routes instead. *)
val is_feasible : t -> Graph.t -> tol:float -> bool

(** [merge_from t other] adds all of [other]'s tree rates into [t], in
    [other]'s first-add order (session arrays must agree in ids/order). *)
val merge_from : t -> t -> unit

(** [copy t] deep-copies the solution; the copy keeps [t]'s first-add
    order. *)
val copy : t -> t
