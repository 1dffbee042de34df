(** The always-on overlay control-plane daemon: a single-threaded
    event loop over stream sockets (TCP and Unix-domain) feeding
    decoded [overlay-wire/1] events into {!Engine.apply} and streaming
    a [Solve_report] back per event.

    The loop is exposed at two grains.  {!run} is the production
    server: block in [select], handle readiness, repeat until a
    drain completes (SIGTERM/SIGINT request one).  {!poll} is a single
    bounded [select] round — the unit the in-process fault-injection
    tests and [bench --daemon] drive directly, interleaving raw client
    writes with server rounds in one thread, deterministically.

    Degradation contract (ISSUE 10): bytes that do not decode earn the
    connection an [Error] reply (with the decoder's offset and reason)
    and a close {e after} the reply flushes — never a crash, and never
    silent.  A well-formed event the engine rejects
    ([Invalid_argument]/[Failure]: unknown id, duplicate join,
    disconnected members …) earns [Error Bad_event] and the connection
    {e stays open}.  A join beyond [limits.max_sessions] earns
    [Error Limit_exceeded], connection open.  An uncertified warm
    re-solve is the engine's own problem — its ladder already falls
    back to a cold solve; the daemon just reports the verdict.  On
    drain, listeners close first, buffered complete frames are still
    applied and replied to, every connection gets a [Shutdown] echo,
    and write queues are flushed (bounded by a grace period) before
    the loop exits. *)

type config = {
  limits : Wire.limits;
  max_connections : int;  (** excess accepts are refused with
                              [Error Limit_exceeded] and closed *)
  drain_grace : float;    (** seconds allowed for the drain flush *)
}

val default_config : config

type t

(** [create ?config ~engine addrs] binds and listens on every address
    (removing a stale Unix-domain socket file first) and wraps the
    engine.  The engine may already hold sessions.  Raises
    [Unix.Unix_error] if a bind fails; on partial failure the
    already-bound listeners are closed (and their socket files
    removed) before re-raising.  A Unix-domain listener's socket file
    is removed whenever the listener closes: at the drain and at
    {!stop}. *)
val create : ?config:config -> engine:Engine.t -> Unix.sockaddr list -> t

(** [poll ?timeout t] runs one [select] round (default 50 ms): accepts
    ready listeners, reads and processes ready connections, flushes
    pending writes.  Returns the number of frames processed this
    round.  Never raises on connection-level failures. *)
val poll : ?timeout:float -> t -> int

(** [drive t client frame] — in-process request/response helper: send
    [frame] from [client], then alternate {!poll} with
    {!Wire_client.try_recv} until a reply arrives (5 s cap). *)
val drive : t -> Wire_client.t -> Wire.frame -> (Wire.frame, string) result

(** [request_shutdown t] starts the drain: close listeners, stop
    reading, echo [Shutdown], flush.  Idempotent; safe from a signal
    handler. *)
val request_shutdown : t -> unit

val draining : t -> bool

(** [finished t] once the drain has completed — no listeners, no
    connections. *)
val finished : t -> bool

(** [run ?metrics_out t] installs SIGTERM/SIGINT handlers (both call
    {!request_shutdown}), ignores SIGPIPE, and loops {!poll} until
    {!finished}.  [metrics_out = (path, interval)] rewrites [path]
    with the Prometheus exposition every [interval] seconds while
    serving, and once more on exit. *)
val run : ?metrics_out:string * float -> t -> unit

(** [stop t] closes every socket immediately (no drain).  For tests. *)
val stop : t -> unit

val engine : t -> Engine.t

(** Sequence number of the last applied event (0 before the first). *)
val seq : t -> int

type stats = {
  accepted : int;        (** connections accepted *)
  refused : int;         (** accepts refused over [max_connections] *)
  frames_in : int;       (** frames decoded off the wire *)
  events_applied : int;  (** churn events the engine accepted *)
  errors_sent : int;     (** [Error] frames sent *)
  closed : int;          (** connections closed (either side) *)
}

val stats : t -> stats
