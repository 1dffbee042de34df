(* Cross-commit solver fingerprints: pinned churn traces replayed
   through the engine, event by event.  Per event a pin records the
   objective's bits, the warm flag, the rung attempts and the
   solver-work counter deltas, so any change that moves a single
   iteration of either FPTAS shows up as a line diff against the pin.

   Three pins:
   - test/data/poisson_small.fingerprint: the Poisson churn trace on
     the CI instance (Waxman, 40 routers, seed 1, ratio 0.90, full
     overlays of at most 7 members), once with MaxFlow and once with
     MCF;
   - test/data/big_session_smoke.fingerprint: churnbench's big_session
     workload at its smoke size (Waxman, 120 routers, seed 4, one
     30-member standing session, k_nearest:10, MaxFlow at ratio 0.80),
     driven by a short trace of joins, leaves, demand changes and
     capacity changes, so sparsified overlays and trees of many pairs
     are pinned too;
   - test/data/solver_paths.fingerprint: every solver that computes
     trees outside the engine, once each on one small instance (the
     CI graph, three sessions): Online, Refinement, both Baselines,
     Mesh_protocol, Stripe_forest, Unsplittable_exact, Churn.run,
     MaxFlow with the engine off, and MaxFlow and MCF in arbitrary
     mode.  A line records the objective's bits, the tree count per
     session, a digest of every tree (pairs, routes) with its rate
     bits, and the [overlay.mst_ops] delta.

   Regeneration (after an intentional change to solver arithmetic or
   tree ordering — say why in the commit), one pin at a time:
     OVERLAY_FINGERPRINT_REGEN=$PWD/test/data/poisson_small.fingerprint \
       dune exec test/test_main.exe -- test fingerprint 0
     OVERLAY_FINGERPRINT_REGEN=$PWD/test/data/big_session_smoke.fingerprint \
       dune exec test/test_main.exe -- test fingerprint 1
     OVERLAY_FINGERPRINT_REGEN=$PWD/test/data/solver_paths.fingerprint \
       dune exec test/test_main.exe -- test fingerprint 2 *)

let regen_env = "OVERLAY_FINGERPRINT_REGEN"

(* under [dune runtest] the cwd is the test sandbox (fixtures under
   data/); under [dune exec] from the repo root they sit under test/data *)
let data_file name =
  let local = Filename.concat "data" name in
  if Sys.file_exists local then local
  else Filename.concat "test" local

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let read_trace path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Churn.read_trace ic)

let kind_name = function
  | Churn.Session_join _ -> "join"
  | Churn.Session_leave _ -> "leave"
  | Churn.Demand_change _ -> "demand"
  | Churn.Capacity_change _ -> "capacity"

let c_iterations = Obs.Counter.make "maxflow.iterations"
let c_phases = Obs.Counter.make "mcf.phases"
let c_mst_ops = Obs.Counter.make "overlay.mst_ops"

let maxflow ratio = ("maxflow", Engine.Maxflow, Max_flow.ratio_to_epsilon ratio)

let mcf ratio =
  ( "mcf",
    Engine.Mcf
      {
        variant = Max_concurrent_flow.Paper;
        scaling = Max_concurrent_flow.Maxflow_weighted;
      },
    Max_concurrent_flow.ratio_to_epsilon ratio )

type pin = {
  trace : string;
  fingerprint : string;
  seed : int;  (** Waxman topology seed *)
  nodes : int;
  sparsify : Sparsify.t;
  solvers : (string * Engine.solver * float) list;
}

(* the instance [overlay_cli churn --seed 1 --nodes 40 --ratio 0.90]
   builds *)
let poisson_small =
  {
    trace = "poisson_small.trace";
    fingerprint = "poisson_small.fingerprint";
    seed = 1;
    nodes = 40;
    sparsify = Sparsify.full;
    solvers = [ maxflow 0.90; mcf 0.90 ];
  }

(* the instance [overlay_cli serve --seed 4 --nodes 120 --ratio 0.80
   --sparsify k_nearest:10] builds *)
let big_session_smoke =
  {
    trace = "big_session_smoke.trace";
    fingerprint = "big_session_smoke.fingerprint";
    seed = 4;
    nodes = 120;
    sparsify = Result.get_ok (Sparsify.of_string "k_nearest:10");
    solvers = [ maxflow 0.80 ];
  }

(* the pin's instance, replayed event by event *)
let fingerprint_lines pin trace =
  List.concat_map
    (fun (name, solver, epsilon) ->
      let rng = Rng.create pin.seed in
      let graph =
        (Waxman.generate rng { Waxman.default_params with n = pin.nodes })
          .Topology.graph
      in
      let config =
        { Engine.default_config with
          Engine.solver; epsilon; sparsify = pin.sparsify }
      in
      let t = Engine.create ~config graph [||] in
      List.mapi
        (fun i te ->
          let it0 = Obs.Counter.value c_iterations
          and ph0 = Obs.Counter.value c_phases
          and mst0 = Obs.Counter.value c_mst_ops in
          let r = Engine.apply t te in
          Printf.sprintf
            "%s %d %s obj=%h warm=%b attempts=%d iterations=%d phases=%d \
             mst_ops=%d"
            name i (kind_name te.Churn.event) r.Engine.objective r.Engine.warm
            r.Engine.attempts
            (Obs.Counter.value c_iterations - it0)
            (Obs.Counter.value c_phases - ph0)
            (Obs.Counter.value c_mst_ops - mst0))
        trace)
    pin.solvers

(* --- the solver-paths pin ------------------------------------------------ *)

(* Every (tree, rate) pair per session, in the order given: the
   overlay pairs, each route's physical edges and the rate's bits *)
let digest_trees (sessions : (Otree.t * float) list array) =
  let b = Buffer.create 1024 in
  Array.iteri
    (fun i trees ->
      Printf.bprintf b "s%d" i;
      List.iter
        (fun ((t : Otree.t), rate) ->
          Array.iter (fun (x, y) -> Printf.bprintf b " %d-%d" x y) t.Otree.pairs;
          Array.iter
            (fun (r : Route.t) ->
              Buffer.add_string b " [";
              Array.iter (Printf.bprintf b " %d") r.Route.edges;
              Buffer.add_char b ']')
            t.Otree.routes;
          Printf.bprintf b " %h;" rate)
        trees)
    sessions;
  Digest.to_hex (Digest.string (Buffer.contents b))

let solution_line name ~obj sol ~mst_ops =
  let n = Array.length (Solution.sessions sol) in
  Printf.sprintf "%s obj=%h trees=%s sol=%s mst_ops=%d" name obj
    (String.concat ","
       (List.init n (fun i -> string_of_int (Solution.n_trees sol i))))
    (digest_trees (Array.init n (Solution.trees sol)))
    mst_ops

(* the poisson_small graph (Waxman, 40 routers, seed 1) and three
   sessions of 5, 4 and 6 members *)
let solver_paths_lines () =
  let graph =
    (Waxman.generate (Rng.create 1) { Waxman.default_params with n = 40 })
      .Topology.graph
  in
  let rng = Rng.create 22 in
  let sessions =
    Array.mapi
      (fun id size ->
        Session.random rng ~id ~topology_size:40 ~size ~demand:1.0)
      [| 5; 4; 6 |]
  in
  let overlays mode = Array.map (Overlay.create graph mode) sessions in
  let throughput name sol =
    solution_line name ~obj:(Solution.overall_throughput sol) sol
  in
  let baseline name (r : Baseline.result) = throughput name r.Baseline.solution in
  (* each run builds its own overlays; its line gets its mst_ops delta *)
  let counted run =
    let mst0 = Obs.Counter.value c_mst_ops in
    let line = run () in
    line ~mst_ops:(Obs.Counter.value c_mst_ops - mst0)
  in
  List.map counted
    [
      (fun () ->
        let r = Online.solve graph (overlays Overlay.Ip) ~sigma:30.0 in
        throughput "online" r.Online.solution);
      (fun () ->
        let r =
          Refinement.improve graph (overlays Overlay.Ip)
            Refinement.default_config
        in
        throughput "refinement" r.Refinement.solution);
      (fun () ->
        baseline "single_tree" (Baseline.single_tree graph (overlays Overlay.Ip)));
      (fun () ->
        baseline "interior_disjoint"
          (Baseline.interior_disjoint graph (overlays Overlay.Ip)
             ~trees_per_session:3));
      (fun () ->
        baseline "mesh_protocol"
          (Mesh_protocol.solve (Rng.create 5) graph (overlays Overlay.Ip)
             Mesh_protocol.default_config));
      (fun () ->
        baseline "stripe_forest"
          (Stripe_forest.solve (Rng.create 6) graph (overlays Overlay.Ip)
             Stripe_forest.default_config));
      (fun () ->
        let r =
          Unsplittable_exact.solve graph
            (Array.sub (overlays Overlay.Ip) 0 2)
        in
        fun ~mst_ops ->
          Printf.sprintf
            "unsplittable_exact obj=%h combinations=%d sol=%s mst_ops=%d"
            r.Unsplittable_exact.objective r.Unsplittable_exact.combinations
            (digest_trees
               (Array.map (fun t -> [ (t, 1.0) ]) r.Unsplittable_exact.trees))
            mst_ops);
      (fun () ->
        let r =
          Churn.run (Rng.create 7) graph
            { Churn.default_config with
              Churn.horizon = 20.0; admission_threshold = 0.02 }
        in
        let last = List.nth r.Churn.trace (List.length r.Churn.trace - 1) in
        let bits =
          String.concat " "
            (Array.to_list
               (Array.map (Printf.sprintf "%h") r.Churn.final_congestion))
        in
        fun ~mst_ops ->
          Printf.sprintf "churn accepted=%d rejected=%d congestion=%s mst_ops=%d"
            last.Churn.accepted last.Churn.rejected
            (Digest.to_hex (Digest.string bits))
            mst_ops);
      (fun () ->
        let r =
          Max_flow.solve ~incremental:false graph (overlays Overlay.Ip)
            ~epsilon:(Max_flow.ratio_to_epsilon 0.85)
        in
        throughput "maxflow_engine_off" r.Max_flow.solution);
      (fun () ->
        let r =
          Max_flow.solve graph (overlays Overlay.Arbitrary)
            ~epsilon:(Max_flow.ratio_to_epsilon 0.70)
        in
        throughput "maxflow_arbitrary" r.Max_flow.solution);
      (fun () ->
        let r =
          Max_concurrent_flow.solve graph (overlays Overlay.Arbitrary)
            ~epsilon:(Max_concurrent_flow.ratio_to_epsilon 0.60)
            ~scaling:Max_concurrent_flow.Maxflow_weighted
        in
        let sol = r.Max_concurrent_flow.solution in
        solution_line "mcf_arbitrary" ~obj:(Solution.concurrent_ratio sol) sol);
    ]

let check_lines ~fingerprint lines () =
  let lines = lines () in
  match Sys.getenv_opt regen_env with
  | Some path ->
    let oc = open_out path in
    List.iter (fun l -> output_string oc (l ^ "\n")) lines;
    close_out oc;
    Printf.printf "regenerated %d fingerprint lines in %s\n"
      (List.length lines) path
  | None ->
    let pinned = read_lines (data_file fingerprint) in
    Alcotest.(check int) "fingerprint line count" (List.length pinned)
      (List.length lines);
    List.iter2
      (fun want got -> Alcotest.(check string) "fingerprint line" want got)
      pinned lines

let check_pin pin =
  check_lines ~fingerprint:pin.fingerprint (fun () ->
      fingerprint_lines pin (read_trace (data_file pin.trace)))

let suite =
  [
    Alcotest.test_case "poisson_small replay matches the pinned fingerprint"
      `Quick (check_pin poisson_small);
    Alcotest.test_case
      "big_session smoke replay matches the pinned fingerprint" `Quick
      (check_pin big_session_smoke);
    Alcotest.test_case "solvers outside the engine match the pinned fingerprint"
      `Quick
      (check_lines ~fingerprint:"solver_paths.fingerprint" solver_paths_lines);
  ]
