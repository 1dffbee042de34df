(** Warm-started incremental re-solve engine for session churn.

    A long-lived in-process engine holding a mutable instance —
    topology, per-session overlays, demands — that accepts churn
    events ({!Churn.event}: joins, leaves, demand and capacity
    changes) and re-solves after each one.  Instead of restarting the
    FPTAS at the uniform delta initialization, a re-solve warm-starts
    from the previous run's dual lengths with a small headroom
    ({!Max_flow.warm_start} / {!Max_concurrent_flow.warm_start}),
    which cuts the iteration count from the full [ln (1/delta)] climb
    to a few nats when the instance changed little — the steady state
    under churn.

    {b Correctness is certificate-gated}: warm feasibility is
    unconditional (the raw flow is normalized to measured link
    saturation, DESIGN.md §12), but the epsilon optimality guarantee
    is re-validated on {e every} warm solution with
    [Check.certify_max_flow] / [Check.certify_mcf].  On a violation
    the engine escalates through the [rooms] ladder — progressively,
    each failed rung's dual repair seeding the next — and finally
    falls back to a cold from-scratch solve, so an accepted state is
    never worse than what a batch caller would have computed.

    Every MaxFlow run the engine starts — the initial solve, each warm
    rung, the cold fallback — stops on its own duality certificate
    ({!Max_flow.stop}: [Certificate], at [1 - eps]), with its room or
    the a-priori threshold as the upper bound; [Check] still gates
    what is accepted.  MCF runs, and the zeta MaxFlow of an MCF join,
    keep the paper's rule.

    Overlay contexts — route tables, incidence indexes, flat CSR
    workspaces ({!Flat}), sparsified candidate sets — persist across
    re-solves; only the overlay of a joining session is built, and a
    demand change reuses the routing state wholesale
    ({!Overlay.with_session}). *)

(** Which solver the engine drives. *)
type solver =
  | Maxflow  (** overall-throughput objective (problem M1) *)
  | Mcf of {
      variant : Max_concurrent_flow.variant;
      scaling : Max_concurrent_flow.demand_scaling;
    }
      (** concurrent-flow objective (problem M2); per-session zetas are
          maintained across events, so a re-solve only runs the
          preprocessing MaxFlow for a {e joining} session *)

type config = {
  epsilon : float;        (** FPTAS accuracy (same domain as the solver's) *)
  solver : solver;
  mode : Overlay.mode;
  sparsify : Sparsify.t;  (** candidate overlay edge policy for new sessions *)
  rooms : float array;
      (** warm-start room ladder in nats, tried in order until the
          certificate passes; empty disables warm starts entirely.  A
          MaxFlow rung's room is its upper bound: the rung may end
          earlier on its own certificate.  The
          ladder is {e progressive}: each failed rung's final duals
          seed the next rung, so dual repair accumulates while every
          rung's primal restarts clean *)
  clamp : float;
      (** dynamic-range bound, in nats, applied to the inherited dual
          shape at the first rung: entries below [exp (-clamp) * max]
          are floored there.  Compresses territory the previous
          instance never priced (tens of nats below the active
          structure after a join opens new edges) while preserving the
          bottleneck ordering near the top of the range; non-positive
          or non-finite disables the floor *)
  certify_tol : float;
  obs : Obs.Sink.t;
      (** receives the engine's churn-level telemetry in addition to
          the solver's own trace: one ["engine.resolve"] span per
          event, and the [overlay-engine-trace/1] vocabulary —
          [Event_start]/[Event_end] around every {!apply} (and the
          initial solve), one [Rung_attempt] per warm rung tried,
          [Certify_fail] per rejected certificate and [Cold_fallback]
          when the ladder is exhausted (payloads documented on
          {!Obs.kind}).  Streaming this sink to a file with
          [Obs_stream.create ~schema:Obs_export.schema_engine] makes
          the whole churn replay reconstructable offline
          ([overlay_cli trace engine]).  Independent of the sink, the
          engine feeds the registered histograms [engine.resolve_s],
          [engine.resolve_<kind>_<warm|cold>_s], [engine.rung_depth]
          and [engine.certify_s] — like every [Obs] surface, none of
          this perturbs solver output. *)
}

(** [Maxflow], IP mode, full overlays, [epsilon = 0.05],
    [rooms = [| 2; 8; 32 |]], [clamp = 8], [Check.default_tol], null
    sink. *)
val default_config : config

type run =
  | Run_maxflow of Max_flow.result
  | Run_mcf of Max_concurrent_flow.result

(** Outcome of one re-solve (or of {!apply}, which adds the event and
    wall-clock). *)
type report = {
  event : Churn.event option;  (** [None] for the initial solve *)
  at : float;                  (** trace timestamp of the event *)
  k : int;                     (** active sessions after the event *)
  warm : bool;                 (** accepted run was warm-started *)
  attempts : int;              (** warm attempts made (including the
                                   accepted one; 0 on the initial solve) *)
  certified : bool;
      (** the accepted run passed [Check.certify_*].  Always [true] for
          a warm acceptance (that is the acceptance criterion); for a
          cold solve it records the verdict *)
  objective : float;
      (** overall throughput ([Maxflow]) or concurrent ratio ([Mcf]) *)
  solve_s : float;             (** seconds in solver runs (all attempts) *)
  certify_s : float;           (** seconds in certification *)
  total_s : float;             (** full event wall-clock: instance
                                   mutation + solves + certificates *)
}

type t

(** [create ?config graph sessions] builds the engine and, when
    [sessions] is non-empty, runs the initial cold solve.  Session ids
    must be distinct; later joins must use fresh ids.  The engine takes
    ownership of [graph] capacity mutations (capacity-change
    events). *)
val create : ?config:config -> Graph.t -> Session.t array -> t

(** [apply t timed] mutates the instance per the event and re-solves
    (warm ladder, then cold fallback).  Raises [Invalid_argument] for a
    join with an active id, a leave/demand change for an unknown id, or
    an out-of-range edge.  A join additionally raises [Failure] if the
    members are disconnected (from {!Overlay.create}). *)
val apply : t -> Churn.timed -> report

(** [replay t trace] applies the events in order. *)
val replay : t -> Churn.timed list -> report list

(** [resolve t] forces a re-solve of the current instance (warm ladder
    as in {!apply}); exposed for benchmarks and tests. *)
val resolve : t -> report

val n_sessions : t -> int
val sessions : t -> Session.t array
val graph : t -> Graph.t

(** [solution t] is the accepted solution of the last re-solve ([None]
    before the first solve or while no session is active). *)
val solution : t -> Solution.t option

(** [last_run t] is the full solver result behind {!solution}. *)
val last_run : t -> run option

(** [objective t] is 0 while no session is active. *)
val objective : t -> float

type stats = { resolves : int; warm_accepted : int; cold_solves : int }

val stats : t -> stats
