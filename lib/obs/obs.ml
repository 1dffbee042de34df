(* Telemetry substrate.  Three design rules govern everything here:
   (1) nothing in this module may influence solver arithmetic — sinks
   and counters are write-only from the solvers' point of view;
   (2) the disabled path must stay branch-cheap, because the solvers
   carry their instrumentation unconditionally; and (3) the always-on
   primitives (clock, counters, gauges, registries) are domain-safe, so
   a tally stays exact whichever domain bumps it.  Sinks are the
   exception: a Sink/Trace is single-domain by contract. *)

(* --- monotonic clock -------------------------------------------------- *)

let t_origin = Unix.gettimeofday ()

(* gettimeofday is wall time and may step backwards (NTP); clamping
   against the previous reading restores monotonicity, which the trace
   format promises.  The clamp cell is an Atomic advanced by CAS so
   concurrent readers on different domains still each observe a
   monotone sequence. *)
let last_now = Atomic.make 0.0

let rec advance_clock t =
  let prev = Atomic.get last_now in
  if t <= prev then prev
  else if Atomic.compare_and_set last_now prev t then t
  else advance_clock t

let now () = advance_clock (Unix.gettimeofday () -. t_origin)

(* --- interned names --------------------------------------------------- *)

module Name = struct
  (* Interning is rare (module initialization, run starts), so one
     mutex over both directions is plenty. *)
  let lock = Mutex.create ()
  let by_string : (string, int) Hashtbl.t = Hashtbl.create 64
  let by_id : string array ref = ref (Array.make 16 "")
  let next = ref 0

  let intern s =
    Mutex.protect lock (fun () ->
        match Hashtbl.find_opt by_string s with
        | Some id -> id
        | None ->
          let id = !next in
          incr next;
          if id >= Array.length !by_id then begin
            let grown = Array.make (2 * Array.length !by_id) "" in
            Array.blit !by_id 0 grown 0 (Array.length !by_id);
            by_id := grown
          end;
          !by_id.(id) <- s;
          Hashtbl.add by_string s id;
          id)

  let to_string id =
    Mutex.protect lock (fun () ->
        if id < 0 || id >= !next then
          invalid_arg (Printf.sprintf "Obs.Name.to_string: unknown id %d" id)
        else !by_id.(id))
end

(* One mutex guards every metric table (counters, gauges, debug flags):
   registration happens at module initialization and reads happen in
   benches/tests, never in solver hot loops, so contention is nil. *)
let registry_lock = Mutex.create ()

(* --- counters, gauges, registry --------------------------------------- *)

module Counter = struct
  (* The tally is an Atomic so several domains can bump the same
     counter concurrently without losing increments; fetch_and_add on
     an uncontended cacheline costs about as much as a plain store. *)
  type t = { name : string; mutable doc : string; n : int Atomic.t }

  let table : (string, t) Hashtbl.t = Hashtbl.create 64

  let make ?doc name =
    Mutex.protect registry_lock (fun () ->
        match Hashtbl.find_opt table name with
        | Some c ->
          (match doc with
          | Some d when c.doc = "" -> c.doc <- d
          | _ -> ());
          c
        | None ->
          let c = { name; doc = Option.value doc ~default:""; n = Atomic.make 0 } in
          Hashtbl.add table name c;
          c)

  let name c = c.name
  let incr c = Atomic.incr c.n

  let add c n =
    if n < 0 then invalid_arg "Obs.Counter.add: negative delta";
    ignore (Atomic.fetch_and_add c.n n)

  let value c = Atomic.get c.n
  let reset c = Atomic.set c.n 0
end

module Gauge = struct
  type t = { name : string; mutable doc : string; v : float Atomic.t }

  let table : (string, t) Hashtbl.t = Hashtbl.create 16

  let make ?doc name =
    Mutex.protect registry_lock (fun () ->
        match Hashtbl.find_opt table name with
        | Some g ->
          (match doc with
          | Some d when g.doc = "" -> g.doc <- d
          | _ -> ());
          g
        | None ->
          let g = { name; doc = Option.value doc ~default:""; v = Atomic.make 0.0 } in
          Hashtbl.add table name g;
          g)

  let name g = g.name
  let set g v = Atomic.set g.v v
  let value g = Atomic.get g.v
end

module Alloc = struct
  let g_per_iter =
    Gauge.make
      ~doc:"minor-heap words allocated per iteration (last Alloc.measure)"
      "alloc.minor_words_per_iter"

  let minor_words = Gc.minor_words

  (* Words allocated by one [Gc.minor_words] call itself (the boxed
     float result), calibrated once: subtracting it turns a
     before/after delta into the words allocated by the measured code
     alone. *)
  let self_overhead =
    let v = lazy (
      let a = Gc.minor_words () in
      let b = Gc.minor_words () in
      b -. a)
    in
    fun () -> Lazy.force v

  let measure ?(warmup = 0) ~iters f =
    if iters <= 0 then invalid_arg "Obs.Alloc.measure: iters must be positive";
    for _ = 1 to warmup do f () done;
    let before = Gc.minor_words () in
    for _ = 1 to iters do f () done;
    let after = Gc.minor_words () in
    let per_iter =
      Float.max 0.0 ((after -. before -. self_overhead ()) /. float_of_int iters)
    in
    Gauge.set g_per_iter per_iter;
    per_iter
end

module Histogram = struct
  (* Log-bucketed value/latency histogram, DDSketch-style.  Buckets are
     geometric with ratio gamma = 2^(1/16) (16 buckets per octave):
     bucket [i] covers [2^((i-bias)/16), 2^((i-bias+1)/16)), and a
     quantile query answers the geometric midpoint 2^((i-bias+0.5)/16)
     of the bucket holding the requested rank — so every reported
     quantile is within a relative error of 2^(1/32) - 1 < 2.2% of the
     true sample.  The layout spans 2^-64 .. 2^64 (2048 buckets);
     values outside clamp to the edge buckets, non-positive and NaN
     values land in a dedicated zero bucket.

     Recording is domain-safe and allocation-free: one atomic
     fetch-and-add on the bucket, one on the fixed-point sum — no CAS
     loops, no boxing.  The sum is kept in units of 2^-30 (~1e-9), so
     it is exact to about a nanosecond per sample and holds totals up
     to ~4.3e9; min/max are derived from the extreme non-empty buckets
     at read time rather than maintained in the hot path. *)

  let octave = 16                 (* buckets per factor of 2 *)
  let bias = 1024                 (* bucket of values in [1, gamma) *)
  let n_buckets = 2048
  let sum_scale = 1073741824.0    (* 2^30 fixed-point units per 1.0 *)

  type t = {
    name : string;
    mutable doc : string;
    zeros : int Atomic.t;         (* samples <= 0 (and NaN) *)
    sum_fp : int Atomic.t;        (* sum of samples, 2^-30 fixed point *)
    buckets : int Atomic.t array;
  }

  type bucket = { b_lo : float; b_hi : float; b_count : int }

  type snapshot = {
    s_count : int;
    s_zeros : int;
    s_sum : float;
    s_min : float;
    s_max : float;
    s_buckets : bucket list;      (* non-empty positive buckets, ascending *)
  }

  let create ?(doc = "") name =
    {
      name;
      doc;
      zeros = Atomic.make 0;
      sum_fp = Atomic.make 0;
      buckets = Array.init n_buckets (fun _ -> Atomic.make 0);
    }

  let table : (string, t) Hashtbl.t = Hashtbl.create 16

  let make ?doc name =
    Mutex.protect registry_lock (fun () ->
        match Hashtbl.find_opt table name with
        | Some h ->
          (match doc with
          | Some d when h.doc = "" -> h.doc <- d
          | _ -> ());
          h
        | None ->
          let h = create ?doc name in
          Hashtbl.add table name h;
          h)

  let name h = h.name

  let bucket_index v =
    (* v > 0 and not NaN here *)
    let l = Float.log2 v in
    if l <= -64.0 then 0
    else if l >= 64.0 then n_buckets - 1
    else bias + int_of_float (Float.floor (l *. float_of_int octave))

  let lower_bound i = Float.exp2 (float_of_int (i - bias) /. float_of_int octave)
  let upper_bound i = lower_bound (i + 1)

  (* geometric midpoint of bucket [i] — the canonical representative
     every read-side estimate (quantile, min, max) answers with.
     Computed as sqrt(lo * hi) over the exact bound floats so estimates
     made from a frozen snapshot (which carries the bounds, not the
     index) are bit-identical to live queries. *)
  let representative i = Float.sqrt (lower_bound i *. upper_bound i)

  let record h v =
    if Float.is_nan v || v <= 0.0 then Atomic.incr h.zeros
    else begin
      Atomic.incr h.buckets.(bucket_index v);
      let fp = int_of_float ((v *. sum_scale) +. 0.5) in
      ignore (Atomic.fetch_and_add h.sum_fp fp)
    end

  let count h =
    let n = ref (Atomic.get h.zeros) in
    Array.iter (fun b -> n := !n + Atomic.get b) h.buckets;
    !n

  let sum h = float_of_int (Atomic.get h.sum_fp) /. sum_scale

  let quantile h p =
    if Float.is_nan p || p < 0.0 || p > 1.0 then
      invalid_arg "Obs.Histogram.quantile: p must be in [0, 1]";
    let zeros = Atomic.get h.zeros in
    let counts = Array.map Atomic.get h.buckets in
    let total = Array.fold_left ( + ) zeros counts in
    if total = 0 then 0.0
    else begin
      (* nearest-rank with half-up rounding, matching the historical
         sorted-array percentile index [round (p * (n-1))] *)
      let rank = int_of_float ((p *. float_of_int (total - 1)) +. 0.5) in
      if rank < zeros then 0.0
      else begin
        let cum = ref zeros and res = ref 0.0 and found = ref false in
        (try
           for i = 0 to n_buckets - 1 do
             cum := !cum + counts.(i);
             if (not !found) && !cum > rank then begin
               res := representative i;
               found := true;
               raise Exit
             end
           done
         with Exit -> ());
        !res
      end
    end

  (* [merge ~into src] adds [src]'s contents into [into]; [src] is
     unchanged.  Safe while either side records concurrently (counts
     are transferred with atomic adds), which is what makes per-window
     histograms composable into run totals. *)
  let merge ~into src =
    if into != src then begin
      let z = Atomic.get src.zeros in
      if z > 0 then ignore (Atomic.fetch_and_add into.zeros z);
      let s = Atomic.get src.sum_fp in
      if s <> 0 then ignore (Atomic.fetch_and_add into.sum_fp s);
      for i = 0 to n_buckets - 1 do
        let c = Atomic.get src.buckets.(i) in
        if c > 0 then ignore (Atomic.fetch_and_add into.buckets.(i) c)
      done
    end

  let snapshot h =
    let zeros = Atomic.get h.zeros in
    let counts = Array.map Atomic.get h.buckets in
    let total = Array.fold_left ( + ) zeros counts in
    let buckets = ref [] in
    let lo_i = ref (-1) and hi_i = ref (-1) in
    for i = n_buckets - 1 downto 0 do
      if counts.(i) > 0 then begin
        buckets :=
          { b_lo = lower_bound i; b_hi = upper_bound i; b_count = counts.(i) }
          :: !buckets;
        lo_i := i;
        if !hi_i < 0 then hi_i := i
      end
    done;
    let s_min =
      if zeros > 0 then 0.0
      else if !lo_i >= 0 then representative !lo_i
      else 0.0
    in
    let s_max =
      if !hi_i >= 0 then representative !hi_i
      else 0.0
    in
    {
      s_count = total;
      s_zeros = zeros;
      s_sum = float_of_int (Atomic.get h.sum_fp) /. sum_scale;
      s_min;
      s_max;
      s_buckets = !buckets;
    }

  let reset h =
    Atomic.set h.zeros 0;
    Atomic.set h.sum_fp 0;
    Array.iter (fun b -> Atomic.set b 0) h.buckets
end

module Registry = struct
  let counters () =
    Mutex.protect registry_lock (fun () ->
        Hashtbl.fold
          (fun _ (c : Counter.t) acc ->
            (c.Counter.name, c.Counter.doc, Atomic.get c.Counter.n) :: acc)
          Counter.table [])
    |> List.sort compare

  let gauges () =
    Mutex.protect registry_lock (fun () ->
        Hashtbl.fold
          (fun _ (g : Gauge.t) acc ->
            (g.Gauge.name, g.Gauge.doc, Atomic.get g.Gauge.v) :: acc)
          Gauge.table [])
    |> List.sort compare

  let histograms () =
    (* take the name list under the lock, snapshot outside it: a
       snapshot scans 2048 atomics and must not hold the registry
       mutex against recorders racing on [make] *)
    let hs =
      Mutex.protect registry_lock (fun () ->
          Hashtbl.fold (fun _ (h : Histogram.t) acc -> h :: acc) Histogram.table [])
    in
    List.map
      (fun (h : Histogram.t) ->
        (h.Histogram.name, h.Histogram.doc, Histogram.snapshot h))
      hs
    |> List.sort compare

  let find_counter name =
    Mutex.protect registry_lock (fun () -> Hashtbl.find_opt Counter.table name)

  let find_gauge name =
    Mutex.protect registry_lock (fun () -> Hashtbl.find_opt Gauge.table name)

  let find_histogram name =
    Mutex.protect registry_lock (fun () -> Hashtbl.find_opt Histogram.table name)

  let reset_all () =
    Mutex.protect registry_lock (fun () ->
        Hashtbl.iter (fun _ (c : Counter.t) -> Atomic.set c.Counter.n 0) Counter.table;
        Hashtbl.iter (fun _ (g : Gauge.t) -> Atomic.set g.Gauge.v 0.0) Gauge.table;
        Hashtbl.iter (fun _ (h : Histogram.t) -> Histogram.reset h) Histogram.table)
end

(* --- debug flags ------------------------------------------------------- *)

module Debug_flags = struct
  type t = {
    name : string;
    env : string;
    doc : string;
    mutable value : bool;
  }

  let table : (string, t) Hashtbl.t = Hashtbl.create 8

  let env_truthy env =
    match Sys.getenv_opt env with
    | Some ("1" | "true" | "yes") -> true
    | _ -> false

  let register ~env ?(doc = "") name =
    Mutex.protect registry_lock (fun () ->
        match Hashtbl.find_opt table name with
        | Some f -> f
        | None ->
          let f = { name; env; doc; value = env_truthy env } in
          Hashtbl.add table name f;
          f)

  (* [enabled] stays a plain field load: flags are effectively
     write-once configuration, and the hot paths read them every
     iteration. *)
  let enabled f = f.value
  let set f b = f.value <- b

  let all () =
    Mutex.protect registry_lock (fun () ->
        Hashtbl.fold (fun _ f acc -> (f.name, f.env, f.doc, f.value) :: acc) table [])
    |> List.sort compare
end

(* --- events ------------------------------------------------------------ *)

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

let kind_name = function
  | Run_start -> "run_start"
  | Run_end -> "run_end"
  | Iter_start -> "iter_start"
  | Iter_end -> "iter_end"
  | Phase_start -> "phase_start"
  | Phase_end -> "phase_end"
  | Demand_double -> "demand_double"
  | Rescale -> "rescale"
  | Mst_recompute -> "mst_recompute"
  | Mst_lazy_skip -> "mst_lazy_skip"
  | Session_rate -> "session_rate"
  | Span_open -> "span_open"
  | Span_close -> "span_close"
  | Event_start -> "event_start"
  | Event_end -> "event_end"
  | Rung_attempt -> "rung_attempt"
  | Cold_fallback -> "cold_fallback"
  | Certify_fail -> "certify_fail"

let all_kinds =
  [
    Run_start; Run_end; Iter_start; Iter_end; Phase_start; Phase_end;
    Demand_double; Rescale; Mst_recompute; Mst_lazy_skip; Session_rate;
    Span_open; Span_close; Event_start; Event_end; Rung_attempt;
    Cold_fallback; Certify_fail;
  ]

let kind_of_name s = List.find_opt (fun k -> kind_name k = s) all_kinds

(* dense codes for the ring's int array *)
let kind_code = function
  | Run_start -> 0
  | Run_end -> 1
  | Iter_start -> 2
  | Iter_end -> 3
  | Phase_start -> 4
  | Phase_end -> 5
  | Demand_double -> 6
  | Rescale -> 7
  | Mst_recompute -> 8
  | Mst_lazy_skip -> 9
  | Session_rate -> 10
  | Span_open -> 11
  | Span_close -> 12
  | Event_start -> 13
  | Event_end -> 14
  | Rung_attempt -> 15
  | Cold_fallback -> 16
  | Certify_fail -> 17

let kind_of_code = function
  | 0 -> Run_start
  | 1 -> Run_end
  | 2 -> Iter_start
  | 3 -> Iter_end
  | 4 -> Phase_start
  | 5 -> Phase_end
  | 6 -> Demand_double
  | 7 -> Rescale
  | 8 -> Mst_recompute
  | 9 -> Mst_lazy_skip
  | 10 -> Session_rate
  | 11 -> Span_open
  | 12 -> Span_close
  | 13 -> Event_start
  | 14 -> Event_end
  | 15 -> Rung_attempt
  | 16 -> Cold_fallback
  | 17 -> Certify_fail
  | c -> invalid_arg (Printf.sprintf "Obs.kind_of_code: %d" c)

module Event = struct
  type t = {
    seq : int;
    time : float;
    kind : kind;
    session : int;
    a : float;
    b : float;
  }
end

(* --- sinks ------------------------------------------------------------- *)

module Sink = struct
  type t = {
    on : bool;
    write : kind -> int -> float -> float -> unit;
  }

  let null = { on = false; write = (fun _ _ _ _ -> ()) }
  let enabled s = s.on
  let emit s kind ~session ~a ~b = if s.on then s.write kind session a b
  let make f = { on = true; write = (fun k s a b -> f k ~session:s ~a ~b) }
end

(* --- ring-buffer trace -------------------------------------------------- *)

module Trace = struct
  (* Preallocated scalar ring: recording an event is a handful of
     unboxed stores plus a clock read — no allocation, no boxing of the
     payload.  The float payload (time, a, b) and the int payload
     (kind, session) are each packed contiguously per event so a write
     touches two cache lines instead of five. *)
  type t = {
    cap : int;
    floats : float array;  (* stride 3: time, a, b *)
    ints : int array;      (* stride 2: kind code, session *)
    mutable n : int;       (* total emissions since clear *)
    mutable pos : int;     (* n mod cap, maintained by wrapping *)
    mutable depth : int;   (* current span-nesting depth *)
    mutable as_sink : Sink.t;
  }

  let create ?(capacity = 65536) () =
    if capacity <= 0 then invalid_arg "Obs.Trace.create: capacity must be > 0";
    let t =
      {
        cap = capacity;
        floats = Array.make (3 * capacity) 0.0;
        ints = Array.make (2 * capacity) (-1);
        n = 0;
        pos = 0;
        depth = 0;
        as_sink = Sink.null;
      }
    in
    let write kind session a b =
      (* span depth bookkeeping lives here so any sink user gets
         consistent nesting for free *)
      let b =
        match kind with
        | Span_open ->
          let d = float_of_int t.depth in
          t.depth <- t.depth + 1;
          d
        | Span_close ->
          t.depth <- max 0 (t.depth - 1);
          float_of_int t.depth
        | _ -> b
      in
      let i = t.pos in
      let fb = 3 * i in
      t.floats.(fb) <- now ();
      t.floats.(fb + 1) <- a;
      t.floats.(fb + 2) <- b;
      let ib = 2 * i in
      t.ints.(ib) <- kind_code kind;
      t.ints.(ib + 1) <- session;
      t.n <- t.n + 1;
      let p = i + 1 in
      t.pos <- (if p = t.cap then 0 else p)
    in
    t.as_sink <- { Sink.on = true; write };
    t

  let sink t = t.as_sink
  let capacity t = t.cap
  let recorded t = min t.n t.cap
  let emitted t = t.n
  let dropped t = max 0 (t.n - t.cap)

  let iter t f =
    let first = dropped t in
    for seq = first to t.n - 1 do
      let i = seq mod t.cap in
      f
        {
          Event.seq;
          time = t.floats.(3 * i);
          kind = kind_of_code t.ints.(2 * i);
          session = t.ints.((2 * i) + 1);
          a = t.floats.((3 * i) + 1);
          b = t.floats.((3 * i) + 2);
        }
    done

  let events t =
    let acc = ref [] in
    iter t (fun e -> acc := e :: !acc);
    List.rev !acc

  let clear t =
    t.n <- 0;
    t.pos <- 0;
    t.depth <- 0
end

(* --- spans -------------------------------------------------------------- *)

module Span = struct
  type id = int

  let make = Name.intern
  let name = Name.to_string

  let enter sink id =
    let t0 = now () in
    Sink.emit sink Span_open ~session:id ~a:0.0 ~b:0.0;
    t0

  let exit sink id t0 =
    Sink.emit sink Span_close ~session:id ~a:(now () -. t0) ~b:0.0

  let with_ sink id f =
    let t0 = enter sink id in
    Fun.protect ~finally:(fun () -> exit sink id t0) f
end
