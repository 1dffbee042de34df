(** Solver telemetry: a zero-dependency, low-overhead observability layer.

    Every long-running algorithm in this repository (the Garg–Könemann
    FPTAS loops of [Max_flow] and [Max_concurrent_flow], the online and
    rounding algorithms, the incremental overlay-length engine of
    [Overlay]) reports what it is doing through this module, in three
    complementary forms:

    - {b Named counters and gauges} ({!Counter}, {!Gauge}) registered in
      a process-wide {!Registry} — cheap monotone tallies (MST
      recomputations, per-overlay-edge weight re-walks, Dijkstra runs)
      that are {e always on}: an increment is one integer store, so the
      hot paths carry them unconditionally.
    - {b A structured event trace} ({!Trace}) — per-run sequences of
      typed events (iteration start/end, phase boundaries,
      demand-doubling, dual rescales, MST recompute vs lazy skip,
      per-session rates) captured into a preallocated ring buffer with
      monotonic timestamps.  Recording is opt-in per solver run through
      the {!Sink} interface; the default {!Sink.null} sink compiles an
      emission down to one boolean load and branch.
    - {b Span timers} ({!Span}) — named begin/end intervals (e.g. the
      MaxFlow preprocessing inside MaxConcurrentFlow) recorded into the
      same trace with durations and nesting depth.

    The cardinal rule, inherited from the incremental engine of
    DESIGN.md §5: {b instrumentation must never perturb solver output}.
    No function in this module influences any floating-point computation;
    with {!Sink.null} every solver produces bit-identical rates and trees
    to an uninstrumented build, and [test/test_obs.ml] asserts it.

    Naming convention for counters, gauges, spans and run names:
    [<area>.<noun>[_<unit>]], lowercase, dot-separated area, underscore
    words — e.g. [overlay.weight_ops], [graph.prim_runs],
    [mcf.preprocess].  OBSERVABILITY.md documents the live inventory,
    the JSON trace schema and a worked convergence-trace walkthrough.

    {b Domain safety.}  The always-on primitives are safe to use from
    any number of domains: the clock is an atomically-advanced clamp,
    counter tallies and gauge values are [Atomic] cells (concurrent
    increments are never lost), and the name/metric/flag registries are
    mutex-protected.  A {!Sink} — in particular a {!Trace} ring — is
    single-domain by contract. *)

(** {1 Monotonic clock} *)

(** [now ()] is the seconds elapsed since the process loaded this
    module, guaranteed non-decreasing across calls (wall-clock
    readings are clamped so a system clock step can never produce a
    backwards timestamp).  All trace events are stamped with it. *)
val now : unit -> float

(** {1 Interned names}

    Event payloads are flat scalars (see {!Event}); strings — run
    names, span labels — are interned once and carried as small
    integer ids. *)

module Name : sig
  (** [intern s] returns the id of [s], allocating a fresh id on first
      use.  Interning the same string twice yields the same id. *)
  val intern : string -> int

  (** [to_string id] recovers the interned string.  Raises
      [Invalid_argument] on an id no {!intern} call returned. *)
  val to_string : int -> string
end

(** {1 Counters, gauges, and the registry} *)

module Counter : sig
  (** A named monotone integer counter, registered globally.  Cheap
      enough for hot loops: {!incr} is one atomic fetch-and-add, so
      totals stay exact when several domains bump the same counter. *)
  type t

  (** [make ?doc name] returns the registered counter called [name],
      creating it (initialized to 0) on first use.  Two [make] calls
      with the same name return the {e same} counter, so independent
      modules can declare their counters at initialization without
      coordination.  [doc] is kept from the first call that supplies
      it. *)
  val make : ?doc:string -> string -> t

  val name : t -> string

  (** [incr c] adds 1. *)
  val incr : t -> unit

  (** [add c n] adds [n] ([n >= 0]; negative deltas raise
      [Invalid_argument] — counters are monotone between resets). *)
  val add : t -> int -> unit

  (** [value c] reads the current tally. *)
  val value : t -> int

  (** [reset c] sets the tally back to 0 (benchmarks snapshot deltas
      instead where possible; reset exists for test isolation). *)
  val reset : t -> unit
end

module Gauge : sig
  (** A named instantaneous float value (last write wins), registered
      globally. *)
  type t

  (** [make ?doc name] — same idempotent-by-name semantics as
      {!Counter.make}. *)
  val make : ?doc:string -> string -> t

  val name : t -> string

  (** [set g v] records the latest value. *)
  val set : t -> float -> unit

  (** [value g] reads the latest value (0.0 before any {!set}). *)
  val value : t -> float
end

module Alloc : sig
  (** Gc-based allocation measurement, centralized so benches and tests
      agree on methodology.  All figures are minor-heap words ([Gc]
      counts in words; multiply by the word size for bytes). *)

  (** [minor_words ()] is [Gc.minor_words] — total minor-heap words
      allocated by this domain so far.  Note the call itself allocates
      its boxed result; see {!self_overhead}. *)
  val minor_words : unit -> float

  (** [self_overhead ()] is the words one [minor_words] call allocates
      (calibrated once).  Subtract it from a before/after delta to get
      the words allocated by the measured code alone. *)
  val self_overhead : unit -> float

  (** [measure ?warmup ~iters f] runs [f] [warmup] times untimed, then
      [iters] times, and returns the overhead-corrected minor words
      allocated per call (clamped at 0).  The result is also published
      on the [alloc.minor_words_per_iter] gauge.  Raises
      [Invalid_argument] when [iters <= 0]. *)
  val measure : ?warmup:int -> iters:int -> (unit -> unit) -> float
end

module Histogram : sig
  (** Log-bucketed value/latency histograms with bounded relative
      quantile error, in the DDSketch family.

      Buckets are geometric with ratio [2^(1/16)] (16 per octave)
      spanning [2^-64 .. 2^64]; a quantile query answers the geometric
      midpoint of the bucket holding the requested rank, so {b every
      reported quantile is within a relative error of [2^(1/32) - 1 <
      2.2%]} of a true sample (non-positive and NaN samples land in a
      dedicated exact zero bucket).  Bucket boundaries are fixed by
      the value alone, which makes histograms {e mergeable}: recording
      into per-window histograms and {!merge}-ing them is equivalent to
      recording everything into one.

      {b Domain safety and cost.}  {!record} is allocation-free and
      safe from any number of domains: one atomic fetch-and-add on the
      bucket counter plus one on the fixed-point sum (units of [2^-30],
      so sums are exact to ~1e-9 per sample and hold totals up to
      ~4.3e9).  Reads ({!quantile}, {!snapshot}) scan the bucket array
      and may run concurrently with recorders; they observe some
      consistent prefix of the updates. *)

  type t

  (** One non-empty positive bucket of a {!snapshot}: [b_count] samples
      fell in [[b_lo, b_hi)]. *)
  type bucket = { b_lo : float; b_hi : float; b_count : int }

  (** A consistent read of a histogram.  [s_min]/[s_max] are the
      representatives (geometric midpoints) of the extreme non-empty
      buckets — estimates under the same 2.2% bound, not exact
      extremes; both are [0.0] when the histogram is empty.
      [s_buckets] lists the non-empty positive buckets ascending;
      samples in the zero bucket appear only in [s_zeros]/[s_count]. *)
  type snapshot = {
    s_count : int;
    s_zeros : int;
    s_sum : float;
    s_min : float;
    s_max : float;
    s_buckets : bucket list;
  }

  (** [make ?doc name] returns the registered histogram called [name]
      — same idempotent-by-name semantics as {!Counter.make}, listed by
      {!Registry.histograms}. *)
  val make : ?doc:string -> string -> t

  (** [create ?doc name] builds an {e unregistered} histogram — for
      transient aggregations (per-window percentiles in [lib/analysis],
      CLI summaries) that must not pollute the process registry. *)
  val create : ?doc:string -> string -> t

  val name : t -> string

  (** [record h v] adds one sample.  [v <= 0] and NaN count into the
      zero bucket (contributing 0 to the sum); [+inf] clamps into the
      topmost bucket. *)
  val record : t -> float -> unit

  (** [count h] is the total number of recorded samples (including
      zeros). *)
  val count : t -> int

  (** [sum h] is the fixed-point sum of the positive samples. *)
  val sum : t -> float

  (** [quantile h p] estimates the [p]-quantile (nearest-rank with
      half-up rounding over the recorded samples) within the 2.2%
      relative-error bound; ranks falling in the zero bucket answer
      [0.0], as does an empty histogram.  Raises [Invalid_argument]
      unless [0 <= p <= 1]. *)
  val quantile : t -> float -> float

  (** [merge ~into src] adds [src]'s contents into [into] ([src] is
      unchanged; merging a histogram into itself is a no-op).  Safe
      while either side is concurrently recording. *)
  val merge : into:t -> t -> unit

  (** [snapshot h] reads the whole histogram at once (the export /
      exposition surface). *)
  val snapshot : t -> snapshot

  (** [reset h] forgets all samples — test isolation, like
      {!Counter.reset}. *)
  val reset : t -> unit
end

module Registry : sig
  (** Read-side of the process-wide metric registry: everything
      {!Counter.make}, {!Gauge.make} and {!Histogram.make} ever
      created, for dumping into bench reports ([Obs_export.registry]
      in [lib/io]) and the Prometheus exposition
      ([Metrics_export.prometheus]). *)

  (** [counters ()] lists [(name, doc, value)] sorted by name. *)
  val counters : unit -> (string * string * int) list

  (** [gauges ()] lists [(name, doc, value)] sorted by name. *)
  val gauges : unit -> (string * string * float) list

  (** [histograms ()] lists [(name, doc, snapshot)] sorted by name. *)
  val histograms : unit -> (string * string * Histogram.snapshot) list

  (** [find_counter name] looks a counter up without creating it. *)
  val find_counter : string -> Counter.t option

  (** [find_gauge name] looks a gauge up without creating it. *)
  val find_gauge : string -> Gauge.t option

  (** [find_histogram name] looks a registered histogram up without
      creating it. *)
  val find_histogram : string -> Histogram.t option

  (** [reset_all ()] zeroes every counter, gauge and registered
      histogram — test isolation only; benches prefer before/after
      snapshots. *)
  val reset_all : unit -> unit
end

(** {1 Debug flags}

    All environment-driven debug toggles go through this table so they
    are discoverable in one place ([Debug_flags.all]) instead of as bare
    [Sys.getenv_opt] calls scattered through the code.  A flag is
    enabled by setting its environment variable to [1], [true] or [yes]
    (anything else, or unset, leaves it off), and can be flipped at
    runtime by the programmatic setter. *)

module Debug_flags : sig
  type t

  (** [register ~env ?doc name] declares flag [name] read from
      environment variable [env] at registration time.  Idempotent by
      name (the same flag cell is returned); the environment is only
      consulted on the call that creates the flag. *)
  val register : env:string -> ?doc:string -> string -> t

  (** [enabled f] reads the flag — one field load, safe for hot
      paths. *)
  val enabled : t -> bool

  (** [set f b] overrides the flag at runtime (tests, REPL). *)
  val set : t -> bool -> unit

  (** [all ()] lists [(name, env, doc, enabled)] for every registered
      flag, sorted by name. *)
  val all : unit -> (string * string * string * bool) list
end

(** {1 Events} *)

(** The closed vocabulary of trace events.  Each event carries the
    fixed payload [(session, a, b)] whose meaning depends on the kind —
    the full taxonomy lives in OBSERVABILITY.md; in brief:

    - [Run_start]: a solver run begins.  [session] = interned run name
      ({!Name}), [a] = number of sessions, [b] = the run's main
      parameter (epsilon, sigma or tree budget).
    - [Run_end]: [session] = interned run name, [a] = iterations /
      phases / alpha-steps performed, [b] = aggregate objective value.
    - [Iter_start] / [Iter_end]: one accepted augmentation of the
      MaxFlow loop (or one per-session routing in Online).  [a] =
      1-based iteration index; on [Iter_end], [session] = winning
      session slot and [b] = flow routed in the step.
    - [Phase_start] / [Phase_end]: MaxConcurrentFlow phase (Paper
      variant) or alpha-step (Fleischer).  [a] = 1-based phase index.
    - [Demand_double]: the T-horizon elapsed and working demands
      doubled (Lemma 6).  [a] = phase index at which it happened.
    - [Rescale]: global renormalization of the dual lengths.  [a] =
      the new [ln_base] magnitude tracked by the solver.
    - [Mst_recompute]: [Overlay.min_spanning_tree] actually ran Prim.
      [session] = session id, [a] = overlay-edge weight re-walks spent
      in the call, [b] = 1 when the lazy-bound Prim path was used,
      0 for the eager path.
    - [Mst_lazy_skip]: the engine proved the previous tree still
      minimal (cycle property) and skipped Prim entirely.  [session] =
      session id.
    - [Session_rate]: final per-session rate report.  [session] =
      session slot, [a] = rate.
    - [Span_open] / [Span_close]: see {!Span}.  [session] = interned
      span name; on close, [a] = duration in seconds, [b] = nesting
      depth after closing (outermost spans close at depth 0).

    The last five kinds form the churn-engine vocabulary of the
    [overlay-engine-trace/1] schema ([lib/engine] emits them from
    [Engine.apply]; see OBSERVABILITY.md):

    - [Event_start]: a churn event enters the engine.  [session] =
      session id (or edge id for capacity changes), [a] = churn
      event-type code (0 join, 1 leave, 2 demand change, 3 capacity
      change, 4 initial solve), [b] = the trace's logical event time.
    - [Event_end]: the event's re-solve finished.  [session] as on
      start, [a] = end-to-end latency in seconds, [b] = 1.0 when the
      warm path was accepted, 0.0 for a cold solve.
    - [Rung_attempt]: one rung of the progressive room ladder was
      tried.  [session] = 0-based rung index, [a] = the rung's room in
      nats, [b] = 1.0 when its certificate was accepted, else 0.0.
    - [Cold_fallback]: the engine solved from scratch.  [a] = warm
      rungs burned before falling back (0.0 for an initial solve with
      no duals to inherit).
    - [Certify_fail]: a certificate was rejected.  [session] = rung
      index ([-1] for the cold path), [a] = the rung's room in nats,
      [b] = number of violations. *)
type kind =
  | Run_start
  | Run_end
  | Iter_start
  | Iter_end
  | Phase_start
  | Phase_end
  | Demand_double
  | Rescale
  | Mst_recompute
  | Mst_lazy_skip
  | Session_rate
  | Span_open
  | Span_close
  | Event_start
  | Event_end
  | Rung_attempt
  | Cold_fallback
  | Certify_fail

(** [kind_name k] is the lowercase wire name used in JSON/CSV exports
    (e.g. [Iter_start] -> ["iter_start"]). *)
val kind_name : kind -> string

(** [kind_of_name s] inverts {!kind_name}. *)
val kind_of_name : string -> kind option

module Event : sig
  (** One recorded trace event.  [time] is {!now}-based; [seq] is the
      0-based global emission index (gaps reveal ring-buffer drops);
      payload semantics per {!kind}. *)
  type t = {
    seq : int;
    time : float;
    kind : kind;
    session : int;  (** slot / session id / interned name; -1 when unused *)
    a : float;
    b : float;
  }
end

(** {1 Sinks} *)

module Sink : sig
  (** Where events go.  Instrumented code holds a sink and calls
      {!emit}; a disabled sink short-circuits after one boolean load,
      which is what makes always-in-place instrumentation affordable. *)
  type t

  (** The no-op sink: {!emit} does nothing, {!enabled} is [false].
      Every instrumented entry point defaults to it. *)
  val null : t

  (** [enabled s] — guard for call sites where even {e computing} the
      payload would cost something. *)
  val enabled : t -> bool

  (** [emit s kind ~session ~a ~b] records one event (no-op on a
      disabled sink). *)
  val emit : t -> kind -> session:int -> a:float -> b:float -> unit

  (** [make f] wraps an arbitrary consumer as an always-enabled sink —
      the escape hatch for custom backends; solver code only ever sees
      this interface, so a streaming or aggregating sink can be swapped
      in without touching the solvers. *)
  val make : (kind -> session:int -> a:float -> b:float -> unit) -> t
end

(** {1 Ring-buffer traces} *)

module Trace : sig
  (** A bounded in-memory event recorder.  Storage is preallocated at
      {!create} as packed scalar arrays (no per-event allocation, no
      GC pressure in solver loops); once full, new events overwrite the
      oldest ([dropped] counts them), so tracing an arbitrarily long
      run is safe.  A trace is single-domain. *)
  type t

  (** [create ?capacity ()] preallocates a trace ring.  [capacity]
      defaults to 65536 events; it must be positive. *)
  val create : ?capacity:int -> unit -> t

  (** [sink t] is the recording sink of this trace.  Emissions also
      maintain the trace's span-nesting depth (see {!Span}). *)
  val sink : t -> Sink.t

  val capacity : t -> int

  (** [recorded t] is the number of events currently held
      ([min emitted capacity]). *)
  val recorded : t -> int

  (** [emitted t] is the total emissions since creation/clear. *)
  val emitted : t -> int

  (** [dropped t] is [max 0 (emitted - capacity)] — events overwritten
      by wraparound. *)
  val dropped : t -> int

  (** [events t] materializes the retained events, oldest first.
      [Event.seq] stays the global emission index, so after wraparound
      the first event's [seq] equals [dropped t]. *)
  val events : t -> Event.t list

  (** [iter t f] visits retained events oldest-first without building
      the list. *)
  val iter : t -> (Event.t -> unit) -> unit

  (** [clear t] forgets all events and resets the depth and emission
      counters (capacity is kept). *)
  val clear : t -> unit
end

(** {1 Span timers} *)

module Span : sig
  (** Named timed intervals recorded as {!Span_open}/{!Span_close}
      event pairs.  Spans may nest; the owning {!Trace} tracks the
      depth ([Span_open.b] is the depth {e entered}, [Span_close.b]
      the depth {e returned to}, so a well-nested trace closes every
      span at the depth it opened). *)

  (** A span label: an interned name, created once at module
      initialization. *)
  type id

  (** [make name] interns a span label (idempotent by name). *)
  val make : string -> id

  val name : id -> string

  (** [enter sink id] emits {!Span_open} and returns the start
      timestamp to pass to {!exit}. *)
  val enter : Sink.t -> id -> float

  (** [exit sink id t0] emits {!Span_close} with duration
      [now () - t0]. *)
  val exit : Sink.t -> id -> float -> unit

  (** [with_ sink id f] runs [f ()] inside the span, closing it even
      when [f] raises. *)
  val with_ : Sink.t -> id -> (unit -> 'a) -> 'a
end
