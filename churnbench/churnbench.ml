(* Certified churn-event benchmark.

   One load-generator process per run: it spawns [overlay_cli serve]
   with the workload's flags, drives it over one Unix-domain connection
   and checks every reply.  With [--trace 1] it also replays the
   identical frames in-process and times each layer (see [Traced]).

     churnbench.exe --serve PATH --workload NAME --seed N --seconds S --trace 0|1
     churnbench.exe --serve PATH --smoke

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}; the lines above it
   are the same numbers for people, with their sample counts. *)

let pct xs p = if Array.length xs = 0 then nan else Stats.percentile xs p
let mean xs = if Array.length xs = 0 then nan else Stats.mean xs
let ms x = 1e3 *. x
let per n x = if n = 0 then nan else float_of_int x /. float_of_int n

(* --- the measured run's numbers ----------------------------------------- *)

type check = { name : string; ok : bool; detail : string }

let check name ok detail = { name; ok; detail }

let host_line () =
  Printf.sprintf "host: nproc=%d ocaml=%s os=%s"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version Sys.os_type

let checkpoint_indices (w : Workloads.t) n =
  let every = w.Workloads.checkpoint_every in
  List.sort_uniq compare (n :: List.init (n / every) (fun i -> (i + 1) * every))
  |> List.filter (fun i -> i >= 1)

let end_to_end (m : Measured.result) cps =
  let rtt =
    Array.map (fun (r : Measured.reply) -> r.Measured.rtt) m.Measured.replies
  in
  let ratios =
    Array.of_list
      (List.map (fun (c : Reference.checkpoint) -> c.daemon /. c.cold) cps)
  in
  [
    ("event_p50_ms", "ms", ms (pct rtt 50.0));
    ("event_p95_ms", "ms", ms (pct rtt 95.0));
    ( "events_per_s", "1/s",
      float_of_int (Array.length m.Measured.replies) /. m.Measured.timed_s );
    ("setup_s", "s", Stats.median m.Measured.setup_s);
    ("peak_rss_mb", "MiB", m.Measured.peak_rss_mb);
    ("objective_ratio", "ratio", mean ratios);
  ]

let measured_checks (w : Workloads.t) (m : Measured.result) cps =
  let events_delta =
    Option.value ~default:(-1)
      (List.assoc_opt "engine.events" m.Measured.counters)
  in
  [
    check "every timed event certified" (m.Measured.failed = 0)
      (Printf.sprintf "%d of %d failed" m.Measured.failed m.Measured.attempted);
    check "set-ups bit-identical" m.Measured.setups_agree
      "objectives differ between set-ups of one run";
    check "serve drained and exited 0" m.Measured.drained "";
    check "engine.events delta equals events sent"
      (events_delta = m.Measured.attempted)
      (Printf.sprintf "delta %d, sent %d" events_delta m.Measured.attempted);
    check "no harness problems" (m.Measured.problems = [])
      (String.concat "; " m.Measured.problems);
    check "cold reference solves certified"
      (List.for_all (fun (c : Reference.checkpoint) -> c.certified) cps)
      "";
    check
      (Printf.sprintf "objective within the %.2f guarantee of a cold solve"
         w.Workloads.ratio)
      (cps <> []
      && List.for_all
           (fun (c : Reference.checkpoint) ->
             c.daemon >= w.Workloads.ratio *. c.cold)
           cps)
      (String.concat " "
         (List.map
            (fun (c : Reference.checkpoint) ->
              Printf.sprintf "#%d:%.4f" c.index (c.daemon /. c.cold))
            cps));
  ]

(* --- the traced run's numbers ------------------------------------------- *)

(* mutation, overlay build and zeta: what [Engine.apply] spends outside
   the solver and the certificate *)
let engine_self (e : Traced.event) =
  e.Traced.apply -. e.Traced.solve -. e.Traced.certify

let layers =
  [
    ("wire", fun (e : Traced.event) -> e.Traced.wire);
    ("engine", engine_self);
    ("solver", fun e -> e.Traced.solve);
    ("check", fun e -> e.Traced.certify);
  ]

(* Self time of [layer] on the traced events of [kind], in ms. *)
let self_ms (t : Traced.result) kind f =
  Array.of_list
    (List.filter_map
       (fun e -> if e.Traced.kind = kind then Some (ms (f e)) else None)
       (Array.to_list t.Traced.events))

let per_layer (m : Measured.result) (t : Traced.result) =
  let ev = t.Traced.events in
  let n = Array.length ev in
  let traced f = Array.map f ev in
  let sum f = Array.fold_left (fun a e -> a + f e) 0 ev in
  let per_event name = per n (Traced.delta t name) in
  let replies f = Array.map f m.Measured.replies in
  let overhead (r : Measured.reply) = r.Measured.rtt -. r.Measured.total_s in
  let hol (r : Measured.reply) = overhead r -. r.Measured.queue_wait in
  let joins = List.filter (fun e -> e.Traced.kind = "join") (Array.to_list ev) in
  let mst = Traced.delta t "overlay.mst_ops" in
  let solve_s = Array.fold_left (fun a e -> a +. e.Traced.solve) 0.0 ev in
  let attempts = sum (fun e -> e.Traced.attempts) in
  let warm = sum (fun e -> if e.Traced.warm then 1 else 0) in
  let apply = traced (fun e -> e.Traced.apply) in
  let self =
    List.concat_map
      (fun (layer, f) ->
        List.concat_map
          (fun kind ->
            let xs = self_ms t kind f in
            let v p = if Array.length xs = 0 then 0.0 else pct xs p in
            [
              (Printf.sprintf "self.%s.%s.p50_ms" layer kind, "ms", v 50.0);
              (Printf.sprintf "self.%s.%s.p95_ms" layer kind, "ms", v 95.0);
            ])
          Workloads.kinds)
      layers
  in
  [
    ("daemon.overhead_ms_p50", "ms", ms (pct (replies overhead) 50.0));
    ("daemon.overhead_ms_p95", "ms", ms (pct (replies overhead) 95.0));
    ( "daemon.queue_wait_ms_p50", "ms",
      ms (pct (replies (fun r -> r.Measured.queue_wait)) 50.0) );
    ("daemon.hol_wait_ms_p50", "ms", ms (pct (replies hol) 50.0));
    ("daemon.error_frames", "count", float_of_int m.Measured.error_frames);
    ( "wire.codec_us_per_event", "us",
      1e6 *. mean (traced (fun e -> e.Traced.wire)) );
    ( "wire.bytes_per_event", "bytes",
      mean (traced (fun e -> float_of_int e.Traced.bytes)) );
    ("engine.apply_ms_p50", "ms", ms (pct apply 50.0));
    ("engine.apply_ms_p95", "ms", ms (pct apply 95.0));
    ( "engine.join_build_ms_p50", "ms",
      ms (pct (Array.of_list (List.map engine_self joins)) 50.0) );
    ("engine.attempts_per_event", "count", per n attempts);
    ( "engine.rung_success_ratio", "ratio",
      if attempts = 0 then 0.0 else per attempts warm );
    ("engine.cold_per_100_events", "count", 100.0 *. per_event "engine.cold");
    ( "solver.solve_ms_p50", "ms",
      ms (pct (traced (fun e -> e.Traced.solve)) 50.0) );
    ("maxflow.iterations_per_event", "count", per_event "maxflow.iterations");
    ("mcf.phases_per_event", "count", per_event "mcf.phases");
    ("overlay.mst_ops_per_event", "count", per n mst);
    ( "solver.ns_per_mst_op", "ns",
      if mst = 0 then 0.0 else 1e9 *. solve_s /. float_of_int mst );
    ("overlay.weight_ops_per_event", "count", per_event "overlay.weight_ops");
    ( "check.certify_ms_p50", "ms",
      ms (pct (traced (fun e -> e.Traced.certify)) 50.0) );
    ("overlay.build_ms", "ms", t.Traced.build_ms);
    ( "graph.dijkstra_runs_per_join", "count",
      per (List.length joins)
        (List.fold_left
           (fun a e -> a + Traced.count "graph.dijkstra_runs" e)
           0 joins) );
    ( "gc.minor_words_per_event", "words",
      mean (traced (fun e -> e.Traced.minor_words)) );
    ( "gc.major_collections_per_100_events", "count",
      100.0 *. per n (sum (fun e -> e.Traced.major_collections)) );
    ( "trace.overhead_ratio", "ratio",
      pct apply 50.0 /. pct (replies (fun r -> r.Measured.total_s)) 50.0 );
  ]
  @ self

let traced_checks (m : Measured.result) (t : Traced.result) =
  let bits = Int64.bits_of_float in
  let last_measured =
    let o = m.Measured.objectives in
    if Array.length o = 0 then nan else o.(Array.length o - 1)
  in
  let per_event_equal =
    Array.length t.Traced.objectives = Array.length m.Measured.objectives
    && Array.for_all2
         (fun a b -> bits a = bits b)
         t.Traced.objectives m.Measured.objectives
  in
  let counter name =
    let measured = List.assoc_opt name m.Measured.counters in
    let traced = Traced.delta t name in
    check
      (Printf.sprintf "%s delta equals the traced run's" name)
      (measured = Some traced)
      (Printf.sprintf "measured %s, traced %d"
         (match measured with Some v -> string_of_int v | None -> "missing")
         traced)
  in
  [
    check "final objective bit-identical to the traced replay"
      (bits last_measured = bits t.Traced.final_objective)
      (Printf.sprintf "%h vs %h" last_measured t.Traced.final_objective);
    check "every report objective bit-identical to the traced replay"
      per_event_equal "";
  ]
  @ List.map counter
      [ "maxflow.iterations"; "mcf.phases"; "overlay.mst_ops"; "engine.cold" ]

(* --- printing ----------------------------------------------------------- *)

let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_metrics title metrics =
  Printf.printf "%s\n" title;
  List.iter
    (fun (name, unit, v) -> Printf.printf "  %-36s %14.6g %s\n" name v unit)
    metrics

let json_line ~correct ~attempted ~failed metrics =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
              (Json_export.escape_string name)
              (number v)
              (Json_export.escape_string unit))
          metrics))

let print_checks checks =
  List.iter
    (fun c ->
      Printf.printf "  [%s] %s%s\n"
        (if c.ok then "ok" else "FAIL")
        c.name
        (if c.ok || c.detail = "" then "" else ": " ^ c.detail))
    checks

let print_samples (w : Workloads.t) (m : Measured.result) =
  let n = Array.length m.Measured.replies in
  let independent, unit =
    match w.Workloads.loop with
    | Workloads.Steady _ -> (n, "events")
    | Workloads.Crowd _ -> (m.Measured.batches, "bursts")
  in
  Printf.printf
    "samples: %d timed events in %d batches over %.2f s; %d independent \
     %s, %d beyond p95; %d set-ups %s s\n"
    n m.Measured.batches m.Measured.timed_s independent unit (independent / 20)
    (Array.length m.Measured.setup_s)
    (String.concat "/"
       (Array.to_list (Array.map (Printf.sprintf "%.4f") m.Measured.setup_s)))

(* One line per certified timed event, for checking the latency
   histogram ([--events PATH]). *)
let write_replies path (m : Measured.result) =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "kind\trtt_ms\ttotal_ms\tqueue_wait_ms\n";
      Array.iter
        (fun (r : Measured.reply) ->
          Printf.fprintf oc "%s\t%.4f\t%.4f\t%.4f\n" r.Measured.kind
            (ms r.Measured.rtt) (ms r.Measured.total_s)
            (ms r.Measured.queue_wait))
        m.Measured.replies)

let print_kind_counts (t : Traced.result) =
  let count kind =
    Array.fold_left
      (fun n e -> if e.Traced.kind = kind then n + 1 else n)
      0 t.Traced.events
  in
  Printf.printf "traced events by kind:%s\n"
    (String.concat ""
       (List.map (fun kind -> Printf.sprintf " %s %d" kind (count kind))
          Workloads.kinds))

(* --- one workload ------------------------------------------------------- *)

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * string * float) list;
}

let run_workload ~exe ~seconds ~trace ~events ?events_out (w : Workloads.t)
    ~seed =
  Printf.printf "workload %s: serve %s\n" w.Workloads.name
    (String.concat " " (List.tl (Workloads.serve_args w ~socket:"PATH")));
  Printf.printf "%s\n%!" (host_line ());
  let inputs = Workloads.inputs w ~seed ~events in
  let m = Measured.run ~exe ~seconds w inputs in
  let setup =
    inputs.Workloads.standing_joins @ List.concat inputs.Workloads.ramp
  in
  let cps =
    Reference.checkpoints w ~setup ~timed:m.Measured.sent
      ~objectives:m.Measured.objectives
      ~at:(checkpoint_indices w m.Measured.attempted)
  in
  let e2e = end_to_end m cps in
  Option.iter (fun path -> write_replies path m) events_out;
  print_samples w m;
  print_metrics "end-to-end:" e2e;
  let traced =
    if trace then begin
      let t = Traced.run w ~setup ~timed:m.Measured.sent in
      Traced.write_spans
        (Filename.concat Serve_proc.run_dir
           (Printf.sprintf "spans-%s-%d.jsonl" w.Workloads.name seed))
        t.Traced.spans;
      Some t
    end
    else None
  in
  let layer_metrics =
    match traced with Some t -> per_layer m t | None -> []
  in
  (match traced with
  | Some t ->
    print_metrics "per-layer:" layer_metrics;
    print_kind_counts t
  | None -> ());
  let checks =
    measured_checks w m cps
    @ match traced with Some t -> traced_checks m t | None -> []
  in
  let finite = List.for_all (fun (_, _, v) -> Float.is_finite v) e2e in
  let checks =
    checks @ [ check "every end-to-end metric measured" finite "" ]
  in
  Printf.printf "checks:\n";
  print_checks checks;
  {
    correct = List.for_all (fun c -> c.ok) checks;
    attempted = m.Measured.attempted;
    failed = m.Measured.failed;
    metrics = (if trace then layer_metrics else e2e);
  }

(* --- command line ------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and exe = ref "" and smoke = ref false in
  let events_out = ref None in
  let spec =
    [
      ( "--workload", Arg.Set_string workload,
        "NAME paper_churn|flash_mcf|big_session" );
      ("--seed", Arg.Set_int seed, "N trace seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 add the traced in-process replay");
      ("--serve", Arg.Set_string exe, "PATH overlay_cli executable");
      ("--smoke", Arg.Set smoke, " all workloads at smoke size, traced");
      ( "--events", Arg.String (fun p -> events_out := Some p),
        "PATH write each timed event's kind and latencies as TSV" );
    ]
  in
  let usage = "churnbench.exe --serve PATH (--smoke | --workload NAME ...)" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !exe = "" || not (Sys.file_exists !exe) then begin
    prerr_endline "churnbench: --serve must name the overlay_cli executable";
    exit 2
  end;
  let guard f =
    try f () with
    | Measured.Setup_failed msg ->
      prerr_endline ("churnbench: set-up failed: " ^ msg);
      exit 1
  in
  if !smoke then
    guard (fun () ->
        let results =
          List.map
            (fun w ->
              let w = Workloads.smoke w in
              let events =
                match w.Workloads.loop with
                | Workloads.Steady _ -> 6
                | Workloads.Crowd size -> 4 * size
              in
              let o =
                run_workload ~exe:!exe ~seconds:120.0 ~trace:true ~events w
                  ~seed:!seed
              in
              o.correct)
            Workloads.all
        in
        let ok = List.for_all Fun.id results in
        print_endline (if ok then "smoke: ok" else "smoke: FAILED");
        exit (if ok then 0 else 1))
  else
    match Workloads.find !workload with
    | None ->
      Printf.eprintf "churnbench: unknown workload %S\n" !workload;
      exit 2
    | Some w ->
      guard (fun () ->
          let events = int_of_float (250.0 *. Float.max 1.0 !seconds) in
          let o =
            run_workload ~exe:!exe ~seconds:!seconds ~trace:(!trace = 1) ~events
              ?events_out:!events_out w ~seed:!seed
          in
          print_endline
            (json_line ~correct:o.correct ~attempted:o.attempted ~failed:o.failed
               o.metrics);
          exit (if o.correct then 0 else 1))
