(* Command-line front end: run any of the paper's experiments at any
   scale, or solve ad-hoc instances with the four algorithms. *)

open Cmdliner

let mode_conv =
  let parse = function
    | "ip" -> Ok Overlay.Ip
    | "arbitrary" | "arb" -> Ok Overlay.Arbitrary
    | s -> Error (`Msg (Printf.sprintf "unknown routing mode %S (ip|arbitrary)" s))
  in
  let print fmt m =
    Format.fprintf fmt "%s"
      (match m with Overlay.Ip -> "ip" | Overlay.Arbitrary -> "arbitrary")
  in
  Arg.conv (parse, print)

let sparsify_conv =
  let parse s =
    match Sparsify.of_string s with
    | Ok spec -> Ok spec
    | Error msg -> Error (`Msg msg)
  in
  let print fmt spec = Format.fprintf fmt "%s" (Sparsify.to_string spec) in
  Arg.conv (parse, print)

let seed =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let nodes =
  Arg.(
    value & opt int 100
    & info [ "nodes" ] ~docv:"N" ~doc:"Router count of the Waxman topology (Setup A).")

let mode =
  Arg.(
    value & opt mode_conv Overlay.Ip
    & info [ "mode" ] ~docv:"MODE" ~doc:"Routing mode: ip (Sec. II) or arbitrary (Sec. V).")

let ratios =
  Arg.(
    value
    & opt (list float) Exp_tables.paper_ratios
    & info [ "ratios" ] ~docv:"R,..." ~doc:"Approximation ratios to sweep.")

let sizes =
  Arg.(
    value & opt (list int) [ 7; 5 ]
    & info [ "sizes" ] ~docv:"S,..." ~doc:"Session sizes (Setup A).")

let demand =
  Arg.(value & opt float 100.0 & info [ "demand" ] ~docv:"D" ~doc:"Session demand.")

let make_setup seed nodes sizes demand =
  Setup.make_a ~seed
    {
      Setup.default_a with
      Setup.n_nodes = nodes;
      session_sizes = Array.of_list sizes;
      demand;
    }

(* --- tables ------------------------------------------------------------ *)

let tables_cmd =
  let run seed nodes sizes demand mode ratios =
    let setup = make_setup seed nodes sizes demand in
    let mf = Exp_tables.maxflow_sweep setup ~mode ~ratios in
    print_string
      (Exp_tables.render_mf
         ~title:
           (match mode with
           | Overlay.Ip -> "Table II (MaxFlow, IP routing)"
           | Overlay.Arbitrary -> "Table VII (MaxFlow, arbitrary routing)")
         mf);
    let mcf =
      Exp_tables.mcf_sweep setup ~mode ~ratios
        ~scaling:Max_concurrent_flow.Maxflow_weighted
    in
    print_string
      (Exp_tables.render_mcf
         ~title:
           (match mode with
           | Overlay.Ip -> "Table IV (MaxConcurrentFlow, IP routing)"
           | Overlay.Arbitrary -> "Table VIII (MaxConcurrentFlow, arbitrary routing)")
         mcf)
  in
  let doc = "Reproduce Tables II/IV (ip mode) or VII/VIII (arbitrary mode)." in
  Cmd.v
    (Cmd.info "tables" ~doc)
    Term.(const run $ seed $ nodes $ sizes $ demand $ mode $ ratios)

(* --- figures (Setup A) --------------------------------------------------- *)

let figures_cmd =
  let run seed nodes sizes demand mode ratios tree_limit repeats =
    let setup = make_setup seed nodes sizes demand in
    let mf = Exp_tables.maxflow_sweep setup ~mode ~ratios in
    let mf_sols =
      List.map
        (fun (r : Exp_tables.mf_row) ->
          (r.Exp_tables.ratio, r.Exp_tables.result.Max_flow.solution))
        mf
    in
    let header, data = Exp_figures.tree_rate_distribution mf_sols ~slot:0 in
    print_string
      (Tableau.series ~title:"Fig 2a: tree rate distribution, session 1 (MaxFlow)"
         ~columns:header data);
    let header, data = Exp_figures.tree_rate_distribution mf_sols ~slot:1 in
    print_string
      (Tableau.series ~title:"Fig 2b: tree rate distribution, session 2 (MaxFlow)"
         ~columns:header data);
    let header, data =
      Exp_figures.link_utilization_distribution setup ~mode mf_sols
    in
    print_string
      (Tableau.series ~title:"Fig 4a: link utilization (MaxFlow)" ~columns:header data);
    let limits = List.init tree_limit (fun i -> i + 1) in
    let random =
      Exp_figures.random_series setup ~mode ~ratio:0.95 ~tree_limits:limits ~repeats
    in
    let online =
      Exp_figures.online_series setup ~mode ~sigma:30.0 ~tree_limits:limits ~repeats
    in
    print_string
      (Exp_figures.render_limited ~title:"Fig 5a: overall throughput"
         ~columns:[ "max_trees"; "random"; "online_sigma_30" ]
         ~metric:(fun p -> p.Exp_figures.throughput)
         [ random; online ]);
    print_string
      (Exp_figures.render_limited ~title:"Fig 5b: rate of session 2"
         ~columns:[ "max_trees"; "random"; "online_sigma_30" ]
         ~metric:(fun p -> p.Exp_figures.session_rates.(1))
         [ random; online ]);
    print_string
      (Exp_figures.render_limited ~title:"Fig 6: distinct trees, session 1"
         ~columns:[ "max_trees"; "random"; "online_sigma_30" ]
         ~metric:(fun p -> p.Exp_figures.distinct_trees.(0))
         [ random; online ])
  in
  let tree_limit =
    Arg.(
      value & opt int 20
      & info [ "max-trees" ] ~docv:"N" ~doc:"Largest tree budget for Figs 5/6.")
  in
  let repeats =
    Arg.(
      value & opt int 100
      & info [ "repeats" ] ~docv:"N" ~doc:"Randomized repetitions to average.")
  in
  let doc = "Reproduce the Setup-A figures (2-11, mode selects IP/arbitrary)." in
  Cmd.v
    (Cmd.info "figures" ~doc)
    Term.(
      const run $ seed $ nodes $ sizes $ demand $ mode $ ratios $ tree_limit
      $ repeats)

(* --- eval (Setup B surfaces) ---------------------------------------------- *)

let eval_cmd =
  let run seed n_as routers counts sizes limits repeats =
    let grid =
      Exp_eval.small_grid ~n_as ~routers
        ~session_counts:(Array.of_list counts)
        ~session_sizes:(Array.of_list sizes) ~seed
    in
    let cells = Exp_eval.run_grid grid in
    print_string
      (Exp_eval.surface grid cells
         ~field:(fun c -> c.Exp_eval.mf_throughput)
         ~title:"Fig 12: overall throughput (MaxFlow)");
    print_string
      (Exp_eval.surface grid cells
         ~field:(fun c -> c.Exp_eval.edges_per_node)
         ~title:"Fig 13: physical edges per overlay node");
    print_string
      (Exp_eval.surface grid cells
         ~field:(fun c -> c.Exp_eval.mcf_min_rate)
         ~title:"Fig 15: minimum session rate (MCF)");
    print_string
      (Exp_eval.surface grid cells
         ~field:(fun c -> c.Exp_eval.throughput_ratio)
         ~title:"Fig 16: throughput ratio (MCF/MF)");
    List.iter
      (fun n ->
        let mcf_txt, mf_txt =
          Exp_eval.fig14 grid ~n_sessions:n ~sizes:(Array.of_list sizes)
        in
        print_string mcf_txt;
        print_string mf_txt;
        print_string (Exp_eval.fig17 grid ~n_sessions:n ~sizes:(Array.of_list sizes)))
      counts;
    List.iter
      (fun limit ->
        let online =
          Exp_eval.run_online_grid grid ~tree_limit:limit ~sigma:10.0 ~repeats
        in
        print_string
          (Exp_eval.online_surface grid online
             ~field:(fun c -> c.Exp_eval.throughput_ratio_vs_mf)
             ~title:
               (Printf.sprintf "Fig 18: online/MF throughput ratio (%d trees)" limit));
        print_string
          (Exp_eval.online_surface grid online
             ~field:(fun c -> c.Exp_eval.minrate_ratio_vs_mcf)
             ~title:
               (Printf.sprintf "Fig 19: online/MCF min-rate ratio (%d trees)" limit)))
      limits
  in
  let n_as =
    Arg.(value & opt int 10 & info [ "as" ] ~docv:"N" ~doc:"Number of ASes.")
  in
  let routers =
    Arg.(value & opt int 100 & info [ "routers" ] ~docv:"N" ~doc:"Routers per AS.")
  in
  let counts =
    Arg.(
      value
      & opt (list int) [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
      & info [ "counts" ] ~docv:"N,..." ~doc:"Session-count axis.")
  in
  let sizes =
    Arg.(
      value
      & opt (list int) [ 10; 20; 30; 40; 50; 60; 70; 80; 90 ]
      & info [ "sizes" ] ~docv:"S,..." ~doc:"Session-size axis.")
  in
  let limits =
    Arg.(
      value & opt (list int) [ 5; 60 ]
      & info [ "tree-limits" ] ~docv:"N,..." ~doc:"Tree budgets for Figs 18/19.")
  in
  let repeats =
    Arg.(
      value & opt int 10
      & info [ "repeats" ] ~docv:"N" ~doc:"Arrival orders to average (online).")
  in
  let doc = "Reproduce the Sec. VI surfaces (Figs 12-19) on the two-level topology." in
  Cmd.v
    (Cmd.info "eval" ~doc)
    Term.(const run $ seed $ n_as $ routers $ counts $ sizes $ limits $ repeats)

(* --- solve: ad-hoc instances ------------------------------------------------ *)

let solve_cmd =
  let run seed nodes sizes demand mode algorithm ratio sigma trace trace_stream
      trace_capacity certify sparsify =
    let setup = make_setup seed nodes sizes demand in
    let g = setup.Setup.topology.Topology.graph in
    let overlays = Setup.overlays ~sparsify setup mode in
    if not (Sparsify.is_full sparsify) then
      Array.iteri
        (fun i o ->
          let k = Session.size (Overlay.session o) in
          Printf.printf
            "session %d: sparsify %s keeps %d of %d candidate overlay edges\n"
            i
            (Sparsify.to_string sparsify)
            (Overlay.n_overlay_edges o)
            (k * (k - 1) / 2))
        overlays;
    let tr =
      Option.map (fun _ -> Obs.Trace.create ~capacity:trace_capacity ()) trace
    in
    let stream = Option.map Obs_stream.create trace_stream in
    let obs =
      match (tr, stream) with
      | Some t, None -> Obs.Trace.sink t
      | None, Some s -> Obs_stream.sink s
      | Some t, Some s ->
        (* tee: the ring keeps the tail queryable in-process while the
           stream captures the full run *)
        let ts = Obs.Trace.sink t and ss = Obs_stream.sink s in
        Obs.Sink.make (fun kind ~session ~a ~b ->
            Obs.Sink.emit ts kind ~session ~a ~b;
            Obs.Sink.emit ss kind ~session ~a ~b)
      | None, None -> Obs.Sink.null
    in
    let write_trace () =
      (match (trace, tr) with
      | Some path, Some t ->
        Obs_export.trace_to_file path t;
        Printf.printf "wrote trace to %s (%d events recorded, %d dropped)\n"
          path (Obs.Trace.recorded t) (Obs.Trace.dropped t)
      | _ -> ());
      match stream with
      | Some s ->
        Obs_stream.close s;
        Printf.printf "wrote trace stream to %s (%d events, 0 dropped)\n"
          (Obs_stream.path s) (Obs_stream.emitted s)
      | None -> ()
    in
    let describe sol =
      let t =
        Tableau.create ~title:"solution"
          [ "session"; "members"; "rate"; "trees" ]
      in
      Array.iteri
        (fun i s ->
          Tableau.add_row t
            [
              string_of_int i;
              string_of_int (Session.size s);
              Printf.sprintf "%.2f" (Solution.session_rate sol i);
              string_of_int (Solution.n_trees sol i);
            ])
        setup.Setup.sessions;
      Tableau.print t;
      Printf.printf
        "overall throughput: %.2f | min rate: %.2f | jain: %.3f | feasible: %b\n"
        (Solution.overall_throughput sol)
        (Solution.min_rate sol)
        (Metrics.fairness_index sol)
        (Solution.is_feasible sol g ~tol:Check.default_tol)
    in
    let verdict =
      match algorithm with
      | "maxflow" ->
        let r =
          Max_flow.solve ~obs g overlays
            ~epsilon:(Max_flow.ratio_to_epsilon ratio)
        in
        Printf.printf "MaxFlow: %d iterations, %d MST operations\n"
          r.Max_flow.iterations r.Max_flow.mst_operations;
        describe r.Max_flow.solution;
        if certify then Some (Check.certify_max_flow g overlays r) else None
      | "mcf" ->
        let scaling = Max_concurrent_flow.Maxflow_weighted in
        let r =
          Max_concurrent_flow.solve ~obs g overlays
            ~epsilon:(Max_concurrent_flow.ratio_to_epsilon ratio)
            ~scaling
        in
        Printf.printf "MaxConcurrentFlow: %d phases, %d+%d MST operations\n"
          r.Max_concurrent_flow.phases r.Max_concurrent_flow.main_mst_operations
          r.Max_concurrent_flow.pre_mst_operations;
        describe r.Max_concurrent_flow.solution;
        if certify then Some (Check.certify_mcf g overlays ~scaling r) else None
      | "online" ->
        let r = Online.solve ~obs g overlays ~sigma in
        Printf.printf "Online: lmax %.3f\n" r.Online.lmax;
        describe r.Online.solution;
        if certify then Some (Check.certify g r.Online.solution) else None
      | "single-tree" ->
        let r = Baseline.single_tree g overlays in
        Printf.printf "Single tree baseline: lmax %.3f\n" r.Baseline.lmax;
        describe r.Baseline.solution;
        if certify then Some (Check.certify g r.Baseline.solution) else None
      | other ->
        Printf.eprintf "unknown algorithm %S\n" other;
        None
    in
    Option.iter (fun v -> Format.printf "%a@." Check.pp_verdict v) verdict;
    write_trace ();
    match verdict with Some v when not (Check.ok v) -> exit 1 | _ -> ()
  in
  let algorithm =
    Arg.(
      value & opt string "maxflow"
      & info [ "algorithm"; "a" ] ~docv:"ALG"
          ~doc:"maxflow | mcf | online | single-tree.")
  in
  let ratio =
    Arg.(
      value & opt float 0.95
      & info [ "ratio" ] ~docv:"R" ~doc:"FPTAS approximation ratio.")
  in
  let sigma =
    Arg.(
      value & opt float 30.0
      & info [ "sigma" ] ~docv:"S" ~doc:"Online algorithm step size.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record the solver's telemetry event trace into a bounded ring \
             and write it as JSON to $(docv) (schema overlay-obs-trace/1, \
             see OBSERVABILITY.md).  Runs longer than the ring drop their \
             oldest events; use $(b,--trace-stream) for lossless capture.")
  in
  let trace_stream =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-stream" ] ~docv:"FILE"
          ~doc:
            "Stream every telemetry event to $(docv) as JSON-lines (schema \
             overlay-obs-trace/2): lossless capture with constant memory, \
             dropped is always 0.  Inspect with $(b,overlay_cli trace \
             summary) $(docv).")
  in
  let trace_capacity =
    Arg.(
      value & opt int 65536
      & info [ "trace-capacity" ] ~docv:"N"
          ~doc:
            "Ring capacity (events) for $(b,--trace).  The default 65536 \
             drops the early iterations of acceptance-size runs; raise it \
             or switch to $(b,--trace-stream).")
  in
  let certify =
    Arg.(
      value & flag
      & info [ "certify" ]
          ~doc:
            "Re-derive the solution's certificate from scratch (spanning \
             trees, route integrity, recomputed loads; plus the weak \
             LP-duality bound for the FPTAS algorithms), print the verdict \
             and exit nonzero on any violation.")
  in
  let sparsify =
    Arg.(
      value
      & opt sparsify_conv Sparsify.full
      & info [ "sparsify" ] ~docv:"STRAT"
          ~doc:
            "Prune each session's candidate overlay edge set before \
             solving: $(b,full) (default, complete overlay), \
             $(b,k_nearest)[:K] (K cheapest edges per member by IP-route \
             latency), $(b,random_mix):R+N (R random + N nearest per \
             member), or $(b,cluster)[:C] (latency clusters, complete \
             inside, representatives across).  Bare names use \
             size-derived defaults; append $(b,@CAP) to additionally cap \
             the candidate structure at CAP spanning trees.  Every \
             strategy keeps the latency MST, so the pruned overlay stays \
             connected; with $(b,--certify) the certificate is relative \
             to the pruned candidate space (see SCALING.md).")
  in
  let doc = "Solve one instance and print per-session rates." in
  Cmd.v
    (Cmd.info "solve" ~doc)
    Term.(
      const run $ seed $ nodes $ sizes $ demand $ mode $ algorithm $ ratio
      $ sigma $ trace $ trace_stream $ trace_capacity $ certify $ sparsify)

(* --- export: dump an instance + solution to files --------------------------- *)

let export_cmd =
  let run seed nodes sizes demand mode ratio outdir =
    if not (Sys.file_exists outdir) then Sys.mkdir outdir 0o755;
    let setup = make_setup seed nodes sizes demand in
    let g = setup.Setup.topology.Topology.graph in
    let overlays = Setup.overlays setup mode in
    let result =
      Max_flow.solve g overlays ~epsilon:(Max_flow.ratio_to_epsilon ratio)
    in
    let solution = result.Max_flow.solution in
    let path name = Filename.concat outdir name in
    Json_export.to_file (path "topology.json")
      (Json_export.topology setup.Setup.topology);
    Json_export.to_file (path "solution.json") (Json_export.solution solution);
    Dot_export.to_file (path "topology.dot")
      (Dot_export.topology setup.Setup.topology);
    Csv_export.to_file (path "trees.csv")
      (Csv_export.render
         ~header:[ "session"; "members"; "rate"; "physical_links" ]
         (Csv_export.solution_rows solution));
    Array.iteri
      (fun slot session ->
        (* best tree of each session rendered as DOT *)
        match
          List.sort
            (fun (_, a) (_, b) -> compare b a)
            (Solution.trees solution slot)
        with
        | (tree, _) :: _ ->
          Dot_export.to_file
            (path (Printf.sprintf "session%d_top_tree.dot" slot))
            (Dot_export.overlay_tree g tree ~members:session.Session.members);
          Csv_export.to_file
            (path (Printf.sprintf "session%d_rate_curve.csv" slot))
            (Csv_export.curve
               ~label:(Printf.sprintf "session%d" slot)
               (Metrics.tree_rate_curve solution slot))
        | [] -> ())
      setup.Setup.sessions;
    Printf.printf
      "wrote topology.{json,dot}, solution.json, trees.csv and per-session \
       tree/curve files to %s/\n"
      outdir
  in
  let ratio =
    Arg.(
      value & opt float 0.95
      & info [ "ratio" ] ~docv:"R" ~doc:"FPTAS approximation ratio.")
  in
  let outdir =
    Arg.(
      value & opt string "overlay_export"
      & info [ "out"; "o" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  let doc = "Solve an instance with MaxFlow and export JSON/DOT/CSV artifacts." in
  Cmd.v
    (Cmd.info "export" ~doc)
    Term.(const run $ seed $ nodes $ sizes $ demand $ mode $ ratio $ outdir)

(* --- obs: dump the live metric registry -------------------------------------- *)

let obs_cmd =
  let run json =
    if json then print_endline (Json_export.to_string (Obs_export.registry ()))
    else begin
      let counters =
        Tableau.create ~title:"counters" [ "name"; "value"; "doc" ]
      in
      List.iter
        (fun (name, doc, value) ->
          Tableau.add_row counters [ name; string_of_int value; doc ])
        (Obs.Registry.counters ());
      Tableau.print counters;
      let gauges = Tableau.create ~title:"gauges" [ "name"; "value"; "doc" ] in
      List.iter
        (fun (name, doc, value) ->
          Tableau.add_row gauges [ name; Printf.sprintf "%g" value; doc ])
        (Obs.Registry.gauges ());
      Tableau.print gauges;
      let flags =
        Tableau.create ~title:"debug flags" [ "name"; "env"; "enabled"; "doc" ]
      in
      List.iter
        (fun (name, env, doc, enabled) ->
          Tableau.add_row flags
            [ name; env; (if enabled then "yes" else "no"); doc ])
        (Obs.Debug_flags.all ());
      Tableau.print flags
    end
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the registry as JSON (the $(b,Obs_export.registry) \
                object) instead of text tables.")
  in
  let doc =
    "Dump the live metric registry: every counter, gauge and debug flag \
     (the inventory documented in OBSERVABILITY.md), without running a \
     bench."
  in
  Cmd.v (Cmd.info "obs" ~doc) Term.(const run $ json)

(* --- trace: read and analyze captured traces ---------------------------------- *)

let load_trace path =
  match Obs_export.read_trace path with
  | Error msg ->
    Printf.eprintf "error: %s: %s\n" path msg;
    exit 1
  | Ok r ->
    List.iter (fun issue -> Printf.eprintf "warning: %s\n" issue) r.Obs_export.r_issues;
    r

let trace_file ~at ~docv =
  Arg.(
    required
    & pos at (some string) None
    & info [] ~docv ~doc:"Trace file (schema overlay-obs-trace/1 or /2).")

let trace_summary_cmd =
  let run path =
    let r = load_trace path in
    Printf.printf "trace: %s (schema %d%s)\n" path r.Obs_export.r_schema
      (if r.Obs_export.r_truncated then ", TRUNCATED" else "");
    Printf.printf "events: %d retained, %d emitted, %d dropped%s\n"
      (Array.length r.Obs_export.r_events)
      r.Obs_export.r_emitted r.Obs_export.r_dropped
      (match r.Obs_export.r_capacity with
      | Some c -> Printf.sprintf " (ring capacity %d)" c
      | None -> "");
    if r.Obs_export.r_issues <> [] then
      Printf.printf "validation issues: %d (see warnings above)\n"
        (List.length r.Obs_export.r_issues);
    let c = Analysis.convergence r.Obs_export.r_events in
    print_string (Analysis.render_convergence ~buckets:0 c);
    let t = Tableau.create ~title:"events by kind" [ "kind"; "count" ] in
    List.iter
      (fun (kind, n) ->
        Tableau.add_row t [ Obs.kind_name kind; string_of_int n ])
      (Analysis.kind_counts r.Obs_export.r_events);
    Tableau.print t
  in
  let doc =
    "Validate a trace and print its envelope, run header, objective and \
     per-kind event counts."
  in
  Cmd.v (Cmd.info "summary" ~doc)
    Term.(const run $ trace_file ~at:0 ~docv:"TRACE")

let trace_convergence_cmd =
  let run path csv buckets =
    let r = load_trace path in
    let c = Analysis.convergence r.Obs_export.r_events in
    if csv then print_string (Analysis.convergence_csv c)
    else print_string (Analysis.render_convergence ~buckets c)
  in
  let csv =
    Arg.(
      value & flag
      & info [ "csv" ]
          ~doc:
            "Emit the full per-iteration trajectory as CSV \
             (kind,iteration,time,dt,session,value) instead of the bucketed \
             text table.")
  in
  let buckets =
    Arg.(
      value & opt int 20
      & info [ "buckets" ] ~docv:"N"
          ~doc:"Iteration buckets for the text rendering.")
  in
  let doc =
    "Report the Garg-Konemann convergence trajectory: per-iteration routed \
     flow and inter-event time with rescale/demand-double markers."
  in
  Cmd.v (Cmd.info "convergence" ~doc)
    Term.(const run $ trace_file ~at:0 ~docv:"TRACE" $ csv $ buckets)

let trace_spans_cmd =
  let run path =
    let r = load_trace path in
    print_string (Analysis.render_spans (Analysis.span_profile r.Obs_export.r_events));
    print_string (Analysis.render_mst (Analysis.mst_efficiency r.Obs_export.r_events))
  in
  let doc =
    "Profile a trace's spans (count, total/self time, nesting) and the \
     MST-engine efficiency split (recomputes vs lazy skips vs weight \
     re-walks per session)."
  in
  Cmd.v (Cmd.info "spans" ~doc)
    Term.(const run $ trace_file ~at:0 ~docv:"TRACE")

let trace_diff_cmd =
  let run path_a path_b iter_tol obj_tol =
    let a = load_trace path_a and b = load_trace path_b in
    let d =
      Analysis.diff ~iter_tol ~obj_tol a.Obs_export.r_events
        b.Obs_export.r_events
    in
    print_string (Analysis.render_diff d);
    if not d.Analysis.equal then exit 1
  in
  let iter_tol =
    Arg.(
      value & opt int 0
      & info [ "iter-tol" ] ~docv:"N"
          ~doc:"Allowed absolute drift in iteration/phase/rescale counts.")
  in
  let obj_tol =
    Arg.(
      value & opt float 1e-9
      & info [ "obj-tol" ] ~docv:"F"
          ~doc:"Allowed relative drift in objective and total routed flow.")
  in
  let doc =
    "Structurally compare two traces (event counts by kind, \
     iteration/phase/objective drift under tolerances); exits non-zero \
     when they differ.  Timestamps and durations are ignored."
  in
  Cmd.v (Cmd.info "diff" ~doc)
    Term.(
      const run
      $ trace_file ~at:0 ~docv:"TRACE_A"
      $ trace_file ~at:1 ~docv:"TRACE_B"
      $ iter_tol $ obj_tol)

let trace_engine_cmd =
  let run path window csv strict =
    let r = load_trace path in
    if strict && r.Obs_export.r_issues <> [] then begin
      Printf.eprintf "error: %s: %d validation issue(s) under --strict\n" path
        (List.length r.Obs_export.r_issues);
      exit 1
    end;
    if r.Obs_export.r_schema_name <> Obs_export.schema_engine then
      Printf.eprintf
        "warning: %s carries schema %s, not %s; engine events may be absent\n"
        path r.Obs_export.r_schema_name Obs_export.schema_engine;
    let rep = Analysis.engine_report ?window r.Obs_export.r_events in
    if csv then print_string (Analysis.engine_csv rep)
    else print_string (Analysis.render_engine rep)
  in
  let window =
    Arg.(
      value
      & opt (some float) None
      & info [ "window" ] ~docv:"S"
          ~doc:
            "Window width in seconds (default: a tenth of the capture's \
             engine-event time range).")
  in
  let csv =
    Arg.(
      value & flag
      & info [ "csv" ]
          ~doc:
            "Emit one CSV row per window plus a total row instead of the \
             text report.")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:
            "Exit nonzero if the reader found any validation issue (seq \
             gaps, non-monotonic time, truncated stream) — the CI gate.")
  in
  let doc =
    "Windowed report over an overlay-engine-trace/1 capture \
     ($(b,overlay_cli churn --trace-stream)): events/sec, joins/sec, \
     per-window p50/p90/p99/max re-solve latency, warm/cold split and \
     rung-escalation counts."
  in
  Cmd.v (Cmd.info "engine" ~doc)
    Term.(const run $ trace_file ~at:0 ~docv:"TRACE" $ window $ csv $ strict)

let trace_cmd =
  let doc =
    "Read captured telemetry traces (ring JSON or JSONL streams) and \
     report on solver behaviour."
  in
  Cmd.group (Cmd.info "trace" ~doc)
    [
      trace_summary_cmd;
      trace_convergence_cmd;
      trace_spans_cmd;
      trace_diff_cmd;
      trace_engine_cmd;
    ]

(* --- metrics: Prometheus exposition of the registry -------------------------- *)

let metrics_cmd =
  let run json out validate =
    match validate with
    | Some path ->
      let text = In_channel.with_open_text path In_channel.input_all in
      (match Metrics_export.validate text with
      | Ok () -> Printf.printf "%s: valid exposition\n" path
      | Error e ->
        Printf.eprintf "error: %s: %s\n" path e;
        exit 1)
    | None ->
      if json then print_endline (Json_export.to_string (Obs_export.registry ()))
      else (
        match out with
        | Some path ->
          Metrics_export.to_file path;
          Printf.printf "wrote metrics exposition to %s\n" path
        | None -> print_string (Metrics_export.prometheus ()))
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the registry as JSON (the $(b,Obs_export.registry) \
             object, histograms included) instead of exposition text.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:"Write the exposition to $(docv) instead of stdout.")
  in
  let validate =
    Arg.(
      value
      & opt (some string) None
      & info [ "validate" ] ~docv:"FILE"
          ~doc:
            "Instead of dumping, check $(docv) against the exposition \
             grammar (names, label syntax, cumulative histogram buckets, \
             +Inf/_count agreement) and exit nonzero on the first \
             violation.")
  in
  let doc =
    "Dump the live metric registry as Prometheus text exposition (format \
     0.0.4): counters, gauges, histograms (cumulative log buckets) and \
     debug flags.  In a fresh process this shows the zero state; \
     $(b,overlay_cli churn --metrics-out) writes the same dump after (or \
     during) a replay."
  in
  Cmd.v (Cmd.info "metrics" ~doc) Term.(const run $ json $ out $ validate)

(* --- churn: replay a churn trace through the re-solve engine ---------------- *)

let churn_cmd =
  let run seed nodes mode algorithm ratio sparsify path verbose trace_stream
      metrics_out metrics_interval =
    let rng = Rng.create seed in
    let topology = Waxman.generate rng { Waxman.default_params with n = nodes } in
    let graph = topology.Topology.graph in
    let trace =
      let ic = open_in path in
      Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
          Churn.read_trace ic)
    in
    Printf.printf "network: %d routers, %d links; trace: %d events\n"
      (Topology.n_nodes topology) (Topology.n_links topology)
      (List.length trace);
    let solver, epsilon =
      match algorithm with
      | "maxflow" -> (Engine.Maxflow, Max_flow.ratio_to_epsilon ratio)
      | "mcf" ->
        ( Engine.Mcf
            {
              variant = Max_concurrent_flow.Paper;
              scaling = Max_concurrent_flow.Maxflow_weighted;
            },
          Max_concurrent_flow.ratio_to_epsilon ratio )
      | other -> failwith (Printf.sprintf "unknown algorithm %S (maxflow|mcf)" other)
    in
    let stream =
      Option.map
        (fun f -> Obs_stream.create ~schema:Obs_export.schema_engine f)
        trace_stream
    in
    let obs =
      match stream with
      | Some s -> Obs_stream.sink s
      | None -> Obs.Sink.null
    in
    let config =
      { Engine.default_config with Engine.solver; epsilon; mode; sparsify; obs }
    in
    let t = Engine.create ~config graph [||] in
    let dump_metrics () = Option.iter Metrics_export.to_file metrics_out in
    let t0 = Obs.now () in
    let reports =
      match metrics_interval with
      | Some n when n > 0 && metrics_out <> None ->
        (* live scrape surface: re-write the exposition every N events *)
        let i = ref 0 in
        List.map
          (fun te ->
            let r = Engine.apply t te in
            incr i;
            if !i mod n = 0 then dump_metrics ();
            r)
          trace
      | _ -> Engine.replay t trace
    in
    let wall = Obs.now () -. t0 in
    if verbose then
      List.iter
        (fun (r : Engine.report) ->
          Printf.printf
            "%8.2f  %-40s k=%-3d %s attempts=%d obj=%10.3f  %6.2fms\n"
            r.Engine.at
            (match r.Engine.event with
            | Some e -> Churn.event_to_string e
            | None -> "-")
            r.Engine.k
            (if r.Engine.warm then "warm" else "cold")
            r.Engine.attempts r.Engine.objective
            (r.Engine.total_s *. 1e3))
        reports;
    (* the engine feeds every event's latency into the registered
       [engine.resolve_s] histogram (same samples as the reports), so
       the summary quotes the histogram — identical figures to
       [--metrics-out] and to [trace engine] over the streamed capture,
       within the histogram's 2.2% relative-error bound *)
    let pct =
      let h = Obs.Histogram.make "engine.resolve_s" in
      fun p -> Obs.Histogram.quantile h p
    in
    let uncertified =
      List.length
        (List.filter (fun (r : Engine.report) -> not r.Engine.certified) reports)
    in
    let s = Engine.stats t in
    Printf.printf
      "replayed %d events in %.2fs (%.1f events/s): %d warm / %d cold, \
       latency p50 %.2fms p99 %.2fms, %d active sessions, objective %.3f\n"
      (List.length reports) wall
      (float_of_int (List.length reports) /. Float.max wall 1e-9)
      s.Engine.warm_accepted s.Engine.cold_solves
      (pct 0.50 *. 1e3) (pct 0.99 *. 1e3)
      (Engine.n_sessions t) (Engine.objective t);
    (match stream with
    | Some s ->
      Obs_stream.close s;
      Printf.printf "wrote engine trace to %s (%d events, 0 dropped)\n"
        (Obs_stream.path s) (Obs_stream.emitted s)
    | None -> ());
    (match metrics_out with
    | Some f ->
      Metrics_export.to_file f;
      Printf.printf "wrote metrics exposition to %s\n" f
    | None -> ());
    if uncertified > 0 then begin
      Printf.printf "%d events failed certification\n" uncertified;
      exit 1
    end
  in
  let algorithm =
    Arg.(
      value & opt string "maxflow"
      & info [ "algorithm"; "a" ] ~docv:"ALG" ~doc:"maxflow | mcf.")
  in
  let ratio =
    Arg.(
      value & opt float 0.95
      & info [ "ratio" ] ~docv:"R" ~doc:"FPTAS approximation ratio.")
  in
  let sparsify =
    Arg.(
      value
      & opt sparsify_conv Sparsify.full
      & info [ "sparsify" ] ~docv:"STRAT"
          ~doc:"Candidate overlay edge policy for joining sessions.")
  in
  let trace_file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TRACE"
          ~doc:
            "Churn trace file, one event per line: $(i,<time> join id=3 \
             demand=1 members=0,5,9), $(i,<time> leave id=3), $(i,<time> \
             demand id=3 demand=2.5), $(i,<time> capacity edge=14 \
             capacity=80).")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "verbose"; "v" ] ~doc:"Print one line per replayed event.")
  in
  let trace_stream =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-stream" ] ~docv:"FILE"
          ~doc:
            "Stream the engine's churn-level telemetry (schema \
             overlay-engine-trace/1: event_start/event_end, rung \
             attempts, cold fallbacks, certify failures, plus the \
             solver's own events) to $(docv) as JSON-lines.  Report on \
             it afterwards with $(b,overlay_cli trace engine) $(docv).")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Write the metric registry (counters and the engine's latency \
             histograms) as Prometheus text exposition to $(docv) after \
             the replay — and during it with $(b,--metrics-interval).")
  in
  let metrics_interval =
    Arg.(
      value
      & opt (some int) None
      & info [ "metrics-interval" ] ~docv:"N"
          ~doc:
            "Re-write $(b,--metrics-out) every $(docv) events during the \
             replay, making the file a live scrape surface.")
  in
  let doc =
    "Replay a churn trace (joins, leaves, demand and capacity changes) \
     through the warm-started re-solve engine and report events/sec, \
     p50/p99 re-solve latency (via the registered engine histograms, \
     2.2% relative-error bound) and the warm/cold split.  Every accepted \
     state is certificate-checked; exits nonzero if any event's solution \
     failed certification."
  in
  Cmd.v (Cmd.info "churn" ~doc)
    Term.(
      const run $ seed $ nodes $ mode $ algorithm $ ratio $ sparsify
      $ trace_file $ verbose $ trace_stream $ metrics_out $ metrics_interval)

(* --- serve / client: the control-plane daemon over overlay-wire/1 ----------- *)

let engine_solver algorithm ratio =
  match algorithm with
  | "maxflow" -> (Engine.Maxflow, Max_flow.ratio_to_epsilon ratio)
  | "mcf" ->
    ( Engine.Mcf
        {
          variant = Max_concurrent_flow.Paper;
          scaling = Max_concurrent_flow.Maxflow_weighted;
        },
      Max_concurrent_flow.ratio_to_epsilon ratio )
  | other -> failwith (Printf.sprintf "unknown algorithm %S (maxflow|mcf)" other)

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"PORT" ~doc:"TCP port on 127.0.0.1.")

let addr_to_string = function
  | Unix.ADDR_UNIX path -> Printf.sprintf "unix:%s" path
  | Unix.ADDR_INET (host, port) ->
    Printf.sprintf "tcp:%s:%d" (Unix.string_of_inet_addr host) port

let serve_cmd =
  let run seed nodes mode algorithm ratio sparsify socket port max_frame
      max_sessions metrics_out metrics_interval =
    if socket = None && port = None then begin
      prerr_endline "serve: need --socket PATH and/or --port PORT";
      exit 2
    end;
    let rng = Rng.create seed in
    let topology = Waxman.generate rng { Waxman.default_params with n = nodes } in
    let graph = topology.Topology.graph in
    let solver, epsilon = engine_solver algorithm ratio in
    let config =
      { Engine.default_config with Engine.solver; epsilon; mode; sparsify }
    in
    let engine = Engine.create ~config graph [||] in
    let limits =
      { Wire.default_limits with Wire.max_frame; max_sessions }
    in
    let addrs =
      (match socket with Some p -> [ Unix.ADDR_UNIX p ] | None -> [])
      @
      match port with
      | Some p -> [ Unix.ADDR_INET (Unix.inet_addr_loopback, p) ]
      | None -> []
    in
    let daemon =
      Daemon.create
        ~config:{ Daemon.default_config with Daemon.limits }
        ~engine addrs
    in
    Printf.printf
      "overlay-wire/%d daemon: %d routers, %d links, %s ratio %.2f\n"
      Wire.version (Topology.n_nodes topology) (Topology.n_links topology)
      algorithm ratio;
    List.iter
      (fun a -> Printf.printf "listening on %s\n" (addr_to_string a))
      addrs;
    flush stdout;
    let metrics_out = Option.map (fun f -> (f, metrics_interval)) metrics_out in
    Daemon.run ?metrics_out daemon;
    let s = Daemon.stats daemon in
    Printf.printf
      "drained: %d connections, %d frames in, %d events applied, %d errors \
       sent, %d active sessions, objective %.3f\n"
      s.Daemon.accepted s.Daemon.frames_in s.Daemon.events_applied
      s.Daemon.errors_sent
      (Engine.n_sessions engine)
      (Engine.objective engine)
  in
  let algorithm =
    Arg.(
      value & opt string "maxflow"
      & info [ "algorithm"; "a" ] ~docv:"ALG" ~doc:"maxflow | mcf.")
  in
  let ratio =
    Arg.(
      value & opt float 0.95
      & info [ "ratio" ] ~docv:"R" ~doc:"FPTAS approximation ratio.")
  in
  let sparsify =
    Arg.(
      value
      & opt sparsify_conv Sparsify.full
      & info [ "sparsify" ] ~docv:"STRAT"
          ~doc:"Candidate overlay edge policy for joining sessions.")
  in
  let max_frame =
    Arg.(
      value
      & opt int Wire.default_limits.Wire.max_frame
      & info [ "max-frame" ] ~docv:"BYTES"
          ~doc:"Largest accepted frame body; oversized frames are refused.")
  in
  let max_sessions =
    Arg.(
      value
      & opt int Wire.default_limits.Wire.max_sessions
      & info [ "max-sessions" ] ~docv:"N"
          ~doc:"Joins beyond $(docv) active sessions are refused.")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Re-write the Prometheus exposition to $(docv) every \
             $(b,--metrics-interval) seconds while serving (clients can \
             also pull it over the wire with $(b,metrics_pull)).")
  in
  let metrics_interval =
    Arg.(
      value & opt float 5.0
      & info [ "metrics-interval" ] ~docv:"SECONDS"
          ~doc:"Interval for $(b,--metrics-out) rewrites.")
  in
  let doc =
    "Run the always-on control-plane daemon: listen on a Unix-domain \
     socket and/or a loopback TCP port, feed overlay-wire/1 churn events \
     into the warm-started re-solve engine, and stream a solve_report per \
     event.  Malformed frames get an error reply and a closed connection; \
     SIGTERM drains in-flight events before exit."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ seed $ nodes $ mode $ algorithm $ ratio $ sparsify
      $ socket_arg $ port_arg $ max_frame $ max_sessions $ metrics_out
      $ metrics_interval)

let client_cmd =
  let run socket host port path metrics_pull verbose wait =
    let addr =
      match (socket, port) with
      | Some p, _ -> Unix.ADDR_UNIX p
      | None, Some p ->
        let inet =
          try Unix.inet_addr_of_string host
          with Failure _ -> (
            try (Unix.gethostbyname host).Unix.h_addr_list.(0)
            with Not_found ->
              prerr_endline (Printf.sprintf "client: unknown host %S" host);
              exit 2)
        in
        Unix.ADDR_INET (inet, p)
      | None, None ->
        prerr_endline "client: need --socket PATH or --port PORT";
        exit 2
    in
    let trace =
      let ic = open_in path in
      Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
          Churn.read_trace ic)
    in
    let c =
      try Wire_client.connect_retry ~attempts:(if wait then 100 else 1) addr
      with Unix.Unix_error (e, _, _) ->
        prerr_endline
          (Printf.sprintf "client: cannot connect to %s: %s"
             (addr_to_string addr) (Unix.error_message e));
        exit 1
    in
    (match Wire_client.handshake c with
    | Ok limits ->
      Printf.printf
        "connected to %s: overlay-wire/%d, max_frame %d, max_sessions %d\n"
        (addr_to_string addr) Wire.version limits.Wire.max_frame
        limits.Wire.max_sessions
    | Error msg ->
      prerr_endline (Printf.sprintf "client: handshake failed: %s" msg);
      exit 1);
    let latencies = ref [] in
    let joins = ref 0 in
    let uncertified = ref 0 in
    let rejected = ref 0 in
    let t0 = Obs.now () in
    List.iter
      (fun (te : Churn.timed) ->
        let sent = Obs.now () in
        Wire_client.send c (Wire_event.to_frame te);
        match Wire_client.recv c with
        | Ok (Wire.Solve_report { k; warm; certified; objective; _ }) ->
          latencies := (Obs.now () -. sent) :: !latencies;
          (match te.Churn.event with
          | Churn.Session_join _ -> incr joins
          | _ -> ());
          if not certified then incr uncertified;
          if verbose then
            Printf.printf "%8.2f  %-40s k=%-3d %s obj=%10.3f\n" te.Churn.at
              (Churn.event_to_string te.Churn.event)
              k
              (if warm then "warm" else "cold")
              objective
        | Ok (Wire.Error { code; message }) ->
          incr rejected;
          Printf.eprintf "event rejected (%s): %s\n"
            (Wire.error_code_name code) message
        | Ok f ->
          incr rejected;
          Printf.eprintf "unexpected reply %s\n" (Wire.frame_name f)
        | Error msg ->
          prerr_endline (Printf.sprintf "client: transport failed: %s" msg);
          exit 1)
      trace;
    let wall = Obs.now () -. t0 in
    let lat = Array.of_list (List.rev !latencies) in
    Printf.printf
      "replayed %d events in %.2fs over the wire: round-trip p50 %.2fms \
       p99 %.2fms, %.1f joins/s sustained\n"
      (List.length trace) wall
      (if Array.length lat = 0 then 0.0 else Stats.percentile lat 50.0 *. 1e3)
      (if Array.length lat = 0 then 0.0 else Stats.percentile lat 99.0 *. 1e3)
      (float_of_int !joins /. Float.max wall 1e-9);
    (match metrics_pull with
    | Some file -> (
      Wire_client.send c (Wire.Metrics_pull { format = Wire.Prometheus });
      match Wire_client.recv c with
      | Ok (Wire.Metrics_reply { body; _ }) ->
        let oc = open_out file in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> output_string oc body);
        Printf.printf "pulled %d bytes of exposition to %s\n"
          (String.length body) file
      | Ok f ->
        prerr_endline
          (Printf.sprintf "client: expected metrics_reply, got %s"
             (Wire.frame_name f));
        exit 1
      | Error msg ->
        prerr_endline (Printf.sprintf "client: metrics pull failed: %s" msg);
        exit 1)
    | None -> ());
    Wire_client.close c;
    if !uncertified > 0 || !rejected > 0 then begin
      Printf.printf "%d events uncertified, %d rejected\n" !uncertified
        !rejected;
      exit 1
    end
  in
  let host =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"HOST" ~doc:"TCP host (with --port).")
  in
  let trace_file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TRACE" ~doc:"Churn trace file to replay over the wire.")
  in
  let metrics_pull =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-pull" ] ~docv:"FILE"
          ~doc:
            "After the replay, pull the daemon's Prometheus exposition over \
             the wire and write it to $(docv).")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "verbose"; "v" ] ~doc:"Print one line per replayed event.")
  in
  let wait =
    Arg.(
      value & flag
      & info [ "wait" ]
          ~doc:"Retry the connection for up to 5s (daemon still starting).")
  in
  let doc =
    "Replay a churn trace against a running daemon over overlay-wire/1 and \
     report p50/p99 round-trip latency and sustained joins per second.  \
     Exits nonzero if any event was rejected or its solution failed \
     certification."
  in
  Cmd.v (Cmd.info "client" ~doc)
    Term.(
      const run $ socket_arg $ host $ port_arg $ trace_file $ metrics_pull
      $ verbose $ wait)

(* --- topo: inspect generated topologies ------------------------------------- *)

let topo_cmd =
  let run seed kind nodes n_as routers =
    let rng = Rng.create seed in
    let t =
      match kind with
      | "waxman" -> Waxman.generate rng { Waxman.default_params with n = nodes }
      | "barabasi" ->
        Barabasi.generate rng { Barabasi.default_params with n = nodes }
      | "two-level" ->
        Two_level.generate rng (Two_level.small_params ~n_as ~routers_per_as:routers)
      | other -> failwith (Printf.sprintf "unknown topology kind %S" other)
    in
    let g = t.Topology.graph in
    let degrees = Array.init (Graph.n_vertices g) (fun v -> float_of_int (Graph.degree g v)) in
    Printf.printf "%s: %d nodes, %d links, %s\n" kind (Topology.n_nodes t)
      (Topology.n_links t)
      (match Topology.check t with None -> "connected" | Some e -> e);
    Printf.printf "degree: %s\n" (Stats.summary degrees)
  in
  let kind =
    Arg.(
      value & opt string "waxman"
      & info [ "kind"; "k" ] ~docv:"KIND" ~doc:"waxman | barabasi | two-level.")
  in
  let n_as =
    Arg.(value & opt int 10 & info [ "as" ] ~docv:"N" ~doc:"ASes (two-level).")
  in
  let routers =
    Arg.(
      value & opt int 100 & info [ "routers" ] ~docv:"N" ~doc:"Routers per AS.")
  in
  let doc = "Generate a topology and print its statistics." in
  Cmd.v (Cmd.info "topo" ~doc) Term.(const run $ seed $ kind $ nodes $ n_as $ routers)

let () =
  let doc =
    "Optimized capacity utilization in overlay networks (Cui/Li/Nahrstedt, SPAA 2004)"
  in
  let info = Cmd.info "overlay_cli" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info [ tables_cmd; figures_cmd; eval_cmd; solve_cmd; export_cmd; churn_cmd; serve_cmd; client_cmd; topo_cmd; obs_cmd; metrics_cmd; trace_cmd ]))
