(** Lossless streaming trace capture: an {!Obs.Sink} that appends every
    event to a JSON-lines file (schema [overlay-obs-trace/2]) instead of
    retaining it in memory.

    The ring buffer of {!Obs.Trace} is bounded by design, so a run that
    emits more events than the ring's capacity silently overwrites its
    oldest events — exactly the early-convergence prefix long
    acceptance runs are traced for.  A stream has no such bound: each
    event becomes one JSON line written through a buffered channel, so
    memory stays constant regardless of run length and [dropped] is
    always 0.

    File layout (full spec in OBSERVABILITY.md):
    - a header line [{"schema":"overlay-obs-trace/2"}],
    - one line per event with the same fields as schema 1
      ([seq], [t], [kind], [name] or [session], [a], [b]),
    - a footer line [{"footer":true,"emitted":N,"dropped":0}] written
      by {!close} — a file without it was truncated mid-run, which
      [Obs_export.read_trace_jsonl] reports.

    Payload floats ([a], [b]) are written losslessly: integers as bare
    decimal digits, everything else through the shortest-round-trip
    renderer shared with the JSON exporters
    ([Json_export.float_to_string]), so a read-back payload equals the
    emitted one bit for bit.  Timestamps are fixed-point seconds with
    nine fractional digits, sampled from {!Obs.now} once every few
    events rather than per event: the clock behind [Obs.now] ticks in
    microseconds while a busy solver emits several events per
    microsecond, so per-event sampling would produce the same
    staircase of repeated stamps at several times the cost.  Stamps
    remain monotone non-decreasing.  Like a {!Obs.Trace} ring, the
    sink assigns [seq] at write and maintains the span-nesting depth
    for {!Obs.Span} events; and like every sink it is single-domain by
    contract.

    The DESIGN.md §5 invariant binds here too: attaching a stream must
    not perturb solver output ([bench --obs] checks bit-identical
    results with the stream attached, at ≤ 10% overhead). *)

type t

(** [create ?schema path] truncates/creates [path] and writes the
    header line.  [schema] defaults to [overlay-obs-trace/2]; the
    churn engine passes [Obs_export.schema_engine]
    ([overlay-engine-trace/1]) to mark a capture that carries the
    engine event vocabulary — the line format is identical and
    [Obs_export.read_trace] accepts both.  Raises [Sys_error] when the
    file cannot be opened. *)
val create : ?schema:string -> string -> t

(** [sink t] is the recording sink; always enabled until {!close}.
    Emitting after {!close} raises [Invalid_argument]. *)
val sink : t -> Obs.Sink.t

(** [path t] is the file being written. *)
val path : t -> string

(** [emitted t] is the number of event lines written so far. *)
val emitted : t -> int

(** [close t] writes the footer line, flushes and closes the file.
    Idempotent. *)
val close : t -> unit

(** [with_file ?schema path f] runs [f sink] with a fresh stream,
    closing it (footer included) whether [f] returns or raises.
    Returns [f]'s value and the number of events captured. *)
val with_file : ?schema:string -> string -> (Obs.Sink.t -> 'a) -> 'a * int
