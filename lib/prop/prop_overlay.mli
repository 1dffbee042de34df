(** Domain generators for the certification property suite.

    A {!case} is a fully-specified random solver run — algorithm,
    topology family, routing mode, instance sizes, epsilon, instance
    seed — compact enough to print on one line and re-parse, which is
    what makes the [OVERLAY_PROP_CASE] replay workflow possible.
    {!solve_case} materializes the instance, runs the algorithm and
    hands the result to the {!Check} certification kernel. *)

type algorithm = Maxflow | Mcf | Rounding | Online | Single_tree | Refinement
type family = Waxman | Barabasi | Two_level

val all_algorithms : algorithm list
val all_families : family list
val algorithm_name : algorithm -> string
val family_name : family -> string

type case = {
  algo : algorithm;
  family : family;
  mode : Overlay.mode;
  nodes : int;              (** requested topology size (>= 8) *)
  n_sessions : int;         (** >= 1 *)
  session_size : int;       (** >= 3; clamped to the topology size *)
  trees_per_session : int;  (** budget for rounding/refinement (>= 1) *)
  epsilon : float;          (** FPTAS epsilon where applicable *)
  instance_seed : int;      (** seed for topology + session draw *)
}

(** [gen ~algo ~family ~mode] draws the remaining case fields:
    nodes in [10, 24], 1–3 sessions of size 3–5, tree budget 1–4,
    epsilon from a coarse palette valid for both FPTAS solvers, and a
    fresh instance seed. *)
val gen :
  algo:algorithm ->
  family:family ->
  mode:Overlay.mode ->
  case Prop.Gen.t

(** [shrink c] proposes strictly smaller cases, in replay priority
    order: node count first, then session count, session size, and
    finally tree budget. *)
val shrink : case -> case list

(** [case_to_string c] is the one-line [key=value,...] form used by the
    [OVERLAY_PROP_CASE] replay variable; {!case_of_string} inverts it.
    Round-trip is exact. *)
val case_to_string : case -> string

val case_of_string : string -> (case, string) result

(** [instance c] materializes the physical graph and sessions the case
    describes (deterministic in [c.instance_seed]). *)
val instance : case -> Graph.t * Session.t array

(** [solve_case c] builds the instance, runs [c.algo] and certifies the
    result from scratch: {!Check.certify_max_flow} for [Maxflow],
    {!Check.certify_mcf} for [Mcf] (scaling policy chosen by the
    instance seed's parity), and the structural {!Check.certify} for
    the four tree-based heuristics.  [inspect] (default: nothing) is
    called with the graph and the solution just before
    certification. *)
val solve_case :
  ?inspect:(Graph.t -> Solution.t -> unit) -> case -> Check.verdict

(** [sparsify_sound c ~spec] checks the sparsification contract on the
    case's instance ({!Sparsify}, passed separately so the replay
    grammar of {!case_to_string} is untouched):

    - the pruned sub-overlay of every session is connected over its
      member slots ({!Overlay.overlay_pairs} + union-find);
    - the solver run {e on the pruned overlays} passes the full
      {!Check} certificate (duality gap included — certified against
      the pruned candidate space, the only sound reference);
    - when [Sparsify.is_full spec], the run is bit-identical to a plain
      build without a spec (equal iteration/phase counts, and
      {!Solution.equal}: the same per-session (tree, rate) lists in
      first-add order, rates equal bit for bit).

    Only meaningful for the FPTAS solvers ([Maxflow]/[Mcf], MCF under
    [Proportional] scaling); raises [Invalid_argument] otherwise. *)
val sparsify_sound : case -> spec:Sparsify.t -> (unit, string) result

(** [warm_consistent c] drives the warm-started re-solve engine
    ({!Engine}) through a deterministic churn sequence on the case's
    instance — join, demand change, capacity change, second join,
    leave, demand change, covering every repair path — and checks the
    engine's contract:

    - every accepted re-solve (warm {e or} cold-fallback) passes the
      full {!Check} certificate;
    - the objective of the final engine state is within the FPTAS
      guarantee band ([1 - 2 eps] for [Maxflow], [1 - 3 eps] for
      [Mcf], minus [Check.default_tol]) of a from-scratch batch solve
      of the surviving instance, mutated capacities included.

    [Mcf] runs the [Paper] variant under [Proportional] scaling, the
    certifiable configuration.  Only meaningful for the FPTAS solvers;
    raises [Invalid_argument] otherwise. *)
val warm_consistent : case -> (unit, string) result

(** [certificate_stop c] runs [c.algo] — MaxFlow, or MCF under the
    scaling {!solve_case} picks — with [~stop:Certificate] on the
    case's instance, cold, then warm from the cold run's duals after a
    capacity change (one edge scaled by a factor in [0.6, 1.4], its dual
    repaired by [c_old / c_new], 32 nats of room), and checks that each
    run passes {!Check.certify_max_flow} or {!Check.certify_mcf}.  A run
    that its certificate ended (registry counter
    [maxflow.certified_stops] or [mcf.certified_stops]) must also reach
    [1 - eps] of its dual bound, minus [Check.default_tol]; a run that
    its threshold or room ended first is held to the claimed factor
    only ([1 - 2 eps] or [1 - 3 eps]).  Raises [Invalid_argument] for
    the other algorithms. *)
val certificate_stop : case -> (unit, string) result
