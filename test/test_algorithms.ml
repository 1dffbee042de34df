(* End-to-end tests for MaxFlow, MaxConcurrentFlow, Random-MinCongestion,
   Online-MinCongestion and the baselines, including validation of the
   FPTAS against the exact LP over enumerated trees. *)

let checkb = Alcotest.(check bool)

let make_env ~seed ~n ~sizes ~demand =
  let rng = Rng.create seed in
  let topo = Waxman.generate rng { Waxman.default_params with n } in
  let g = topo.Topology.graph in
  let sessions =
    Array.mapi
      (fun id size -> Session.random rng ~id ~topology_size:n ~size ~demand)
      sizes
  in
  (g, sessions)

(* exact optimum of M1 by enumerating all overlay trees (IP routes) *)
let exact_m1_throughput g overlays =
  let sessions = Array.map Overlay.session overlays in
  let smax = float_of_int (Session.max_size sessions - 1) in
  let hops = Array.make (Graph.n_edges g) 1.0 in
  let trees =
    Array.to_list overlays
    |> List.concat_map (fun o ->
           let k = Session.size (Overlay.session o) in
           List.map
             (fun edge_list ->
               Overlay.tree_of_pairs o ~pairs:(Array.of_list edge_list) hops)
             (Prufer.enumerate k))
  in
  let nvars = List.length trees in
  let m = Graph.n_edges g in
  let a = Array.make_matrix m nvars 0.0 in
  List.iteri
    (fun j t -> Otree.iter_usage t (fun e c -> a.(e).(j) <- float_of_int c))
    trees;
  let b = Array.init m (fun e -> Graph.capacity g e) in
  let c =
    Array.of_list
      (List.map
         (fun t ->
           float_of_int (Session.receivers sessions.(t.Otree.session_id)) /. smax)
         trees)
  in
  let sol = Simplex.maximize ~c ~a ~b in
  sol.Simplex.objective *. smax

let test_maxflow_matches_exact_lp () =
  (* three random instances with sessions small enough to enumerate *)
  List.iter
    (fun seed ->
      let g, sessions = make_env ~seed ~n:30 ~sizes:[| 5; 4 |] ~demand:100.0 in
      let overlays = Array.map (Overlay.create g Overlay.Ip) sessions in
      let ratio = 0.95 in
      let r = Max_flow.solve g overlays ~epsilon:(Max_flow.ratio_to_epsilon ratio) in
      let fptas = Solution.overall_throughput r.Max_flow.solution in
      let exact = exact_m1_throughput g overlays in
      checkb
        (Printf.sprintf "seed %d: fptas %.2f within [%.2f, %.2f]" seed fptas
           (ratio *. exact) exact)
        true
        (fptas >= (ratio *. exact) -. 1e-6 && fptas <= exact +. 1e-6))
    [ 101; 202; 303 ]

let test_maxflow_feasible () =
  let g, sessions = make_env ~seed:1 ~n:50 ~sizes:[| 7; 5 |] ~demand:100.0 in
  let overlays = Array.map (Overlay.create g Overlay.Ip) sessions in
  let r = Max_flow.solve g overlays ~epsilon:0.05 in
  checkb "feasible" true (Solution.is_feasible r.Max_flow.solution g ~tol:Check.default_tol);
  checkb "positive throughput" true
    (Solution.overall_throughput r.Max_flow.solution > 0.0);
  checkb "counts MST ops" true (r.Max_flow.mst_operations > 0)

let test_maxflow_single_session () =
  let g, sessions = make_env ~seed:2 ~n:40 ~sizes:[| 5 |] ~demand:100.0 in
  let overlay = Overlay.create g Overlay.Ip sessions.(0) in
  let rate, r = Max_flow.solve_single g overlay ~epsilon:0.05 in
  checkb "rate positive" true (rate > 0.0);
  checkb "rate equals solution" true
    (abs_float (rate -. Solution.session_rate r.Max_flow.solution 0) < 1e-9)

let test_maxflow_epsilon_validation () =
  let g, sessions = make_env ~seed:3 ~n:20 ~sizes:[| 3 |] ~demand:1.0 in
  let overlays = Array.map (Overlay.create g Overlay.Ip) sessions in
  Alcotest.check_raises "epsilon too large"
    (Invalid_argument "Max_flow.solve: epsilon out of (0, 0.5)") (fun () ->
      ignore (Max_flow.solve g overlays ~epsilon:0.7))

let test_maxflow_tightening_ratio_improves () =
  let g, sessions = make_env ~seed:4 ~n:40 ~sizes:[| 5; 4 |] ~demand:100.0 in
  let run ratio =
    let overlays = Array.map (Overlay.create g Overlay.Ip) sessions in
    let r = Max_flow.solve g overlays ~epsilon:(Max_flow.ratio_to_epsilon ratio) in
    Solution.overall_throughput r.Max_flow.solution
  in
  let loose = run 0.90 and tight = run 0.98 in
  (* the guarantee improves; empirically the paper observes monotone
     growth. Allow tiny numerical slack. *)
  checkb "tighter ratio not worse" true (tight >= loose *. 0.99)

(* --- MaxConcurrentFlow ------------------------------------------------- *)

let test_mcf_feasible_and_fair () =
  let g, sessions = make_env ~seed:5 ~n:50 ~sizes:[| 7; 5 |] ~demand:100.0 in
  let overlays = Array.map (Overlay.create g Overlay.Ip) sessions in
  let r =
    Max_concurrent_flow.solve g overlays ~epsilon:0.03
      ~scaling:Max_concurrent_flow.Maxflow_weighted
  in
  let s = r.Max_concurrent_flow.solution in
  checkb "feasible" true (Solution.is_feasible s g ~tol:Check.default_tol);
  checkb "both sessions served" true
    (Solution.session_rate s 0 > 0.0 && Solution.session_rate s 1 > 0.0);
  checkb "zetas positive" true
    (Array.for_all (fun z -> z > 0.0) r.Max_concurrent_flow.zetas)

let test_mcf_proportional_serves_demand_ratio () =
  (* with Proportional scaling and equal demands, rates are near-equal
     (each phase routes the same working demand per session) *)
  let g, sessions = make_env ~seed:6 ~n:40 ~sizes:[| 5; 5 |] ~demand:50.0 in
  let overlays = Array.map (Overlay.create g Overlay.Ip) sessions in
  let r =
    Max_concurrent_flow.solve g overlays ~epsilon:0.05
      ~scaling:Max_concurrent_flow.Proportional
  in
  let s = r.Max_concurrent_flow.solution in
  let r0 = Solution.session_rate s 0 and r1 = Solution.session_rate s 1 in
  checkb
    (Printf.sprintf "rates near equal (%.2f vs %.2f)" r0 r1)
    true
    (abs_float (r0 -. r1) <= 0.1 *. Float.max r0 r1)

let test_mcf_min_rate_dominates_single_tree () =
  (* the fractional optimum should be at least as good as the one-tree
     baseline on the min rate *)
  let g, sessions = make_env ~seed:7 ~n:40 ~sizes:[| 6; 4 |] ~demand:10.0 in
  let overlays = Array.map (Overlay.create g Overlay.Ip) sessions in
  let mcf =
    Max_concurrent_flow.solve g overlays ~epsilon:0.05
      ~scaling:Max_concurrent_flow.Proportional
  in
  let baseline_overlays = Array.map (Overlay.create g Overlay.Ip) sessions in
  let single = Baseline.single_tree g baseline_overlays in
  (* compare normalized by demand: the baseline scales to saturation so
     compare the concurrent ratio (min rate / demand) *)
  let mcf_ratio = Solution.concurrent_ratio mcf.Max_concurrent_flow.solution in
  let single_ratio = Solution.concurrent_ratio single.Baseline.solution in
  checkb
    (Printf.sprintf "mcf %.3f >= 0.8 * single-tree %.3f" mcf_ratio single_ratio)
    true
    (mcf_ratio >= 0.8 *. single_ratio)

(* --- Random rounding ------------------------------------------------------ *)

let fractional_for_rounding () =
  let g, sessions = make_env ~seed:8 ~n:50 ~sizes:[| 7; 5 |] ~demand:100.0 in
  let overlays = Array.map (Overlay.create g Overlay.Ip) sessions in
  let r =
    Max_concurrent_flow.solve g overlays ~epsilon:0.03
      ~scaling:Max_concurrent_flow.Maxflow_weighted
  in
  (g, r.Max_concurrent_flow.solution)

let test_rounding_feasible_and_bounded () =
  let g, fractional = fractional_for_rounding () in
  let rng = Rng.create 99 in
  List.iter
    (fun n_trees ->
      let r = Random_rounding.round rng g ~fractional ~trees_per_session:n_trees in
      checkb "feasible" true (Solution.is_feasible r.Random_rounding.solution g ~tol:Check.default_tol);
      Array.iteri
        (fun i d ->
          checkb
            (Printf.sprintf "distinct trees (%d) within budget %d" d n_trees)
            true
            (d <= n_trees && d >= 1);
          ignore i)
        r.Random_rounding.distinct_trees)
    [ 1; 3; 10 ]

let test_rounding_more_trees_helps () =
  let g, fractional = fractional_for_rounding () in
  let rng = Rng.create 100 in
  let _, thr1, _ =
    Random_rounding.round_average rng g ~fractional ~trees_per_session:1 ~repeats:30
  in
  let _, thr20, _ =
    Random_rounding.round_average rng g ~fractional ~trees_per_session:20 ~repeats:30
  in
  checkb
    (Printf.sprintf "20 trees (%.1f) beat 1 tree (%.1f)" thr20 thr1)
    true (thr20 > thr1)

let test_rounding_respects_fractional_support () =
  let g, fractional = fractional_for_rounding () in
  let rng = Rng.create 101 in
  let r = Random_rounding.round rng g ~fractional ~trees_per_session:5 in
  (* every selected tree must exist in the fractional support *)
  let support =
    List.concat_map
      (fun i -> List.map fst (Solution.trees fractional i))
      (List.init (Array.length (Solution.sessions fractional)) Fun.id)
  in
  Array.iteri
    (fun i _ ->
      List.iter
        (fun (t, _) ->
          checkb "tree from support" true (List.exists (Otree.equal t) support))
        (Solution.trees r.Random_rounding.solution i))
    (Solution.sessions r.Random_rounding.solution)

(* --- Online ------------------------------------------------------------------ *)

let test_online_feasible () =
  let g, sessions = make_env ~seed:9 ~n:50 ~sizes:[| 6; 4 |] ~demand:1.0 in
  let replicas = Session.replicate sessions ~copies:8 ~demand:1.0 in
  let overlays = Array.map (Overlay.create g Overlay.Ip) replicas in
  let r = Online.solve g overlays ~sigma:30.0 in
  checkb "feasible" true (Solution.is_feasible r.Online.solution g ~tol:Check.default_tol);
  checkb "one tree per session" true
    (Array.for_all (fun (_ : Otree.t) -> true) r.Online.trees);
  Array.iteri
    (fun slot _ ->
      checkb "each replica uses exactly one tree" true
        (Solution.n_trees r.Online.solution slot = 1))
    (Solution.sessions r.Online.solution)

let test_online_sigma_sensitivity () =
  (* large sigma spreads trees across links; tiny sigma keeps reusing
     the same shortest tree. Both must stay feasible. *)
  let g, sessions = make_env ~seed:10 ~n:50 ~sizes:[| 6 |] ~demand:1.0 in
  let run sigma =
    let replicas = Session.replicate sessions ~copies:12 ~demand:1.0 in
    let overlays = Array.map (Overlay.create g Overlay.Ip) replicas in
    let r = Online.solve g overlays ~sigma in
    checkb "feasible" true (Solution.is_feasible r.Online.solution g ~tol:Check.default_tol);
    let distinct =
      Metrics.aggregate_replicated_trees r.Online.solution
        ~original_of_slot:(Array.make 12 0) ~originals:1
    in
    distinct.(0)
  in
  let low = run 0.001 and high = run 100.0 in
  checkb
    (Printf.sprintf "larger sigma diversifies (%d vs %d)" low high)
    true (high >= low)

let test_online_congestion_bound () =
  (* Theorem 4: congestion of the unscaled routing is O(OPT log m).
     We check the weaker sanity bound lmax <= k * smax (every session
     routed, each tree can load an edge at most n_e <= |S|-1 times its
     demand/capacity, capacities 100, demand 1). *)
  let g, sessions = make_env ~seed:11 ~n:50 ~sizes:[| 5; 5 |] ~demand:1.0 in
  let replicas = Session.replicate sessions ~copies:10 ~demand:1.0 in
  let overlays = Array.map (Overlay.create g Overlay.Ip) replicas in
  let r = Online.solve g overlays ~sigma:10.0 in
  let k = float_of_int (Array.length replicas) in
  checkb "lmax sane" true (r.Online.lmax <= k *. 5.0 /. 100.0 +. 1e-9)

let test_online_no_bottleneck_factor () =
  let g, sessions = make_env ~seed:12 ~n:30 ~sizes:[| 4; 3 |] ~demand:10.0 in
  let overlays = Array.map (Overlay.create g Overlay.Ip) sessions in
  let f = Online.scale_demands_for_no_bottleneck g overlays in
  (* max demand 10, smax 4, min cap 100, k 2: 100 / (10*4*2*2) = 0.625 *)
  Alcotest.(check (float 1e-9)) "factor" 0.625 f

(* --- Baselines ----------------------------------------------------------------- *)

let test_single_tree_baseline () =
  let g, sessions = make_env ~seed:13 ~n:40 ~sizes:[| 6; 4 |] ~demand:10.0 in
  let overlays = Array.map (Overlay.create g Overlay.Ip) sessions in
  let r = Baseline.single_tree g overlays in
  checkb "feasible" true (Solution.is_feasible r.Baseline.solution g ~tol:Check.default_tol);
  Array.iteri
    (fun i _ -> checkb "one tree" true (Solution.n_trees r.Baseline.solution i = 1))
    sessions

let test_interior_disjoint_baseline () =
  let g, sessions = make_env ~seed:14 ~n:40 ~sizes:[| 6; 4 |] ~demand:10.0 in
  let overlays = Array.map (Overlay.create g Overlay.Ip) sessions in
  let r = Baseline.interior_disjoint g overlays ~trees_per_session:3 in
  checkb "feasible" true (Solution.is_feasible r.Baseline.solution g ~tol:Check.default_tol);
  Array.iteri
    (fun i _ ->
      let n = Solution.n_trees r.Baseline.solution i in
      checkb (Printf.sprintf "3 stars (%d)" n) true (n = 3))
    sessions;
  (* each star tree really is interior-disjoint: the trees are stars by
     construction; verify every tree of session 0 spans *)
  List.iter
    (fun (t, _) ->
      checkb "spans" true
        (Otree.is_spanning t ~n_members:(Session.size sessions.(0))))
    (Solution.trees r.Baseline.solution 0)

let test_multi_tree_beats_single_tree () =
  (* the paper's core claim: multi-tree capacity >= single-tree *)
  let g, sessions = make_env ~seed:15 ~n:50 ~sizes:[| 7; 5 |] ~demand:100.0 in
  let mf_overlays = Array.map (Overlay.create g Overlay.Ip) sessions in
  let mf = Max_flow.solve g mf_overlays ~epsilon:0.05 in
  let bl_overlays = Array.map (Overlay.create g Overlay.Ip) sessions in
  let bl = Baseline.single_tree g bl_overlays in
  let mf_thr = Solution.overall_throughput mf.Max_flow.solution in
  let bl_thr = Solution.overall_throughput bl.Baseline.solution in
  checkb
    (Printf.sprintf "multi-tree %.1f >= single-tree %.1f" mf_thr bl_thr)
    true
    (mf_thr >= bl_thr *. 0.95)

(* --- the certificate stop ------------------------------------------------ *)

(* One FPTAS solver as [certificate_stop_on] drives it: [run] solves
   cold, or warm from [(prev_lens, room)], under [stop], and returns
   the run's final duals, its step count (MaxFlow iterations, MCF
   phases) and Check's verdict; [stops] counts the runs a certificate
   ended. *)
type fptas = {
  name : string;
  steps : string;
  stops : Obs.Counter.t;
  run :
    (float array * float) option ->
    stop:Max_flow.stop ->
    Graph.t ->
    Overlay.t array ->
    epsilon:float ->
    float array * int * Check.verdict;
}

let maxflow =
  {
    name = "maxflow";
    steps = "iterations";
    stops = Obs.Counter.make "maxflow.certified_stops";
    run =
      (fun warm ~stop g overlays ~epsilon ->
        let warm_start =
          Option.map (fun (prev_lens, room) -> { Max_flow.prev_lens; room }) warm
        in
        let r = Max_flow.solve ?warm_start ~stop g overlays ~epsilon in
        ( r.Max_flow.dual_lengths,
          r.Max_flow.iterations,
          Check.certify_max_flow g overlays r ));
  }

let mcf =
  let scaling = Max_concurrent_flow.Maxflow_weighted in
  {
    name = "mcf";
    steps = "phases";
    stops = Obs.Counter.make "mcf.certified_stops";
    run =
      (fun warm ~stop g overlays ~epsilon ->
        let warm_start =
          Option.map
            (fun (prev_lens, room) -> { Max_concurrent_flow.prev_lens; room })
            warm
        in
        let r =
          Max_concurrent_flow.solve ?warm_start ~stop g overlays ~epsilon
            ~scaling
        in
        ( r.Max_concurrent_flow.dual_lengths,
          r.Max_concurrent_flow.phases,
          Check.certify_mcf g overlays ~scaling r ));
  }

(* [solver.run] and how much it moved the solver's stop counter *)
let counted_run solver ?warm ~stop g overlays ~epsilon =
  let before = Obs.Counter.value solver.stops in
  let r = solver.run warm ~stop g overlays ~epsilon in
  (r, Obs.Counter.value solver.stops - before)

(* On [sessions], a cold run, and a warm run from the final duals of
   the paper-rule cold run with 8 nats of room: under
   [~stop:Certificate] each certifies, reaches 1 - eps of Check's dual
   bound, ends on the certificate and takes fewer steps than the same
   run under the paper's rule, which the counter does not count. *)
let certificate_stop_on solver ~what g sessions ~epsilon =
  let overlays = Array.map (Overlay.create g Overlay.Ip) sessions in
  let check_against label ?warm ((_, paper_steps, _), paper_stops) =
    let (_, steps, v), stops =
      counted_run solver ?warm ~stop:Max_flow.Certificate g overlays ~epsilon
    in
    let label = Printf.sprintf "%s %s %s" solver.name what label in
    checkb
      (Printf.sprintf "%s certifies (%s)" label
         (Format.asprintf "%a" Check.pp_verdict v))
      true (Check.ok v);
    let achieved = Option.get v.Check.primal /. Option.get v.Check.dual_bound in
    checkb
      (Printf.sprintf "%s achieves %.4f of the dual bound, >= 1 - eps" label
         achieved)
      true
      (achieved >= 1.0 -. epsilon -. Check.default_tol);
    checkb
      (Printf.sprintf "%s: %d %s < the paper rule's %d" label steps
         solver.steps paper_steps)
      true (steps < paper_steps);
    Alcotest.(check int) (label ^ ": certificate run counted") 1 stops;
    Alcotest.(check int) (label ^ ": paper-rule run not counted") 0
      paper_stops
  in
  let ((cold_lens, _, _), _) as paper_cold =
    counted_run solver ~stop:Max_flow.Threshold g overlays ~epsilon
  in
  check_against "cold" paper_cold;
  let warm = (cold_lens, 8.0) in
  check_against "warm" ~warm
    (counted_run solver ~warm ~stop:Max_flow.Threshold g overlays ~epsilon)

let certificate_stop_setup_a solver ~epsilon () =
  let setup = Setup.make_a ~seed:4 Setup.default_a in
  certificate_stop_on solver ~what:"Setup A"
    setup.Setup.topology.Topology.graph setup.Setup.sessions ~epsilon

let certificate_stop_waxman solver ~epsilon () =
  let g, sessions =
    make_env ~seed:23 ~n:60 ~sizes:[| 6; 5; 4 |] ~demand:100.0
  in
  certificate_stop_on solver ~what:"Waxman 60" g sessions ~epsilon

(* --- the warm MCF demand scale -------------------------------------------- *)

let mcf_epsilon = Max_concurrent_flow.ratio_to_epsilon 0.85

(* A warm MCF run on Setup A's pair (flash_mcf's standing sessions),
   under [Maxflow_weighted], from the duals of a paper-rule run on the
   pair, plus a third session when [third]: its working demands must
   be exactly [2^j] times the bases Check re-derives from its zetas,
   with [j = floor (log2 (D / alpha))] computed here from those duals
   with Check's own tree weights (the bound is scale-free, so the
   solver's renormalization does not move it), and the run must
   certify.  Returns the bound. *)
let warm_demand_scale ~third =
  let scaling = Max_concurrent_flow.Maxflow_weighted in
  let setup = Setup.make_a ~seed:4 Setup.default_a in
  let g = setup.Setup.topology.Topology.graph in
  let pair = setup.Setup.sessions in
  let previous =
    if third then
      Array.append pair
        [|
          Session.random (Rng.create 3) ~id:10
            ~topology_size:(Graph.n_vertices g) ~size:3 ~demand:100.0;
        |]
    else pair
  in
  let prev_lens =
    (Max_concurrent_flow.solve g
       (Array.map (Overlay.create g Overlay.Ip) previous)
       ~epsilon:mcf_epsilon ~scaling)
      .Max_concurrent_flow.dual_lengths
  in
  let overlays = Array.map (Overlay.create g Overlay.Ip) pair in
  let r =
    Max_concurrent_flow.solve
      ~warm_start:{ Max_concurrent_flow.prev_lens; room = 8.0 }
      g overlays ~epsilon:mcf_epsilon ~scaling
  in
  let k = float_of_int (Array.length pair) in
  let bases =
    Array.map (fun z -> Float.max (z /. k) 1e-12) r.Max_concurrent_flow.zetas
  in
  let d = ref 0.0 in
  for e = 0 to Graph.n_edges g - 1 do
    let c = Graph.capacity g e in
    if c > 0.0 then d := !d +. (c *. prev_lens.(e))
  done;
  let alpha = ref 0.0 in
  Array.iteri
    (fun i o ->
      alpha := !alpha +. (bases.(i) *. Check.min_tree_weight o prev_lens))
    overlays;
  let bound = !d /. !alpha in
  let j = if bound >= 2.0 then int_of_float (Float.log2 bound) else 0 in
  Array.iteri
    (fun i base ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "bound %.3f: working demand %d = 2^%d * base" bound i
           j)
        (Float.ldexp base j) r.Max_concurrent_flow.working_demands.(i))
    bases;
  let v = Check.certify_mcf g overlays ~scaling r in
  checkb
    (Format.asprintf "warm run certifies (%a)" Check.pp_verdict v)
    true (Check.ok v);
  bound

(* Case 1: the third session's duals price links the pair alone leaves
   idle, so the bound is above 2 (6.3 here) and the warm run starts two
   doublings up. *)
let test_warm_demand_scale_doubles () =
  let bound = warm_demand_scale ~third:true in
  checkb (Printf.sprintf "bound %.3f >= 2: j >= 1" bound) true (bound >= 2.0)

(* Case 2: the pair's own converged duals bound its optimum below 2,
   so the warm run keeps the preprocessing scale (j = 0). *)
let test_warm_demand_scale_keeps () =
  let bound = warm_demand_scale ~third:false in
  checkb (Printf.sprintf "bound %.3f < 2" bound) true (bound < 2.0)

let suite =
  [
    Alcotest.test_case "maxflow = exact LP (enumerated)" `Slow
      test_maxflow_matches_exact_lp;
    Alcotest.test_case "maxflow feasible" `Quick test_maxflow_feasible;
    Alcotest.test_case "maxflow single session" `Quick test_maxflow_single_session;
    Alcotest.test_case "maxflow epsilon validation" `Quick
      test_maxflow_epsilon_validation;
    Alcotest.test_case "maxflow certificate stop: Setup A" `Quick
      (certificate_stop_setup_a maxflow
         ~epsilon:(Max_flow.ratio_to_epsilon 0.90));
    Alcotest.test_case "maxflow certificate stop: Waxman 60" `Quick
      (certificate_stop_waxman maxflow
         ~epsilon:(Max_flow.ratio_to_epsilon 0.95));
    Alcotest.test_case "maxflow ratio monotone-ish" `Quick
      test_maxflow_tightening_ratio_improves;
    Alcotest.test_case "mcf feasible & fair" `Quick test_mcf_feasible_and_fair;
    Alcotest.test_case "mcf proportional near-equal rates" `Quick
      test_mcf_proportional_serves_demand_ratio;
    Alcotest.test_case "mcf dominates single tree" `Quick
      test_mcf_min_rate_dominates_single_tree;
    Alcotest.test_case "rounding feasible & bounded" `Quick
      test_rounding_feasible_and_bounded;
    Alcotest.test_case "rounding more trees helps" `Quick test_rounding_more_trees_helps;
    Alcotest.test_case "rounding from support" `Quick
      test_rounding_respects_fractional_support;
    Alcotest.test_case "online feasible" `Quick test_online_feasible;
    Alcotest.test_case "online sigma sensitivity" `Quick test_online_sigma_sensitivity;
    Alcotest.test_case "online congestion bound" `Quick test_online_congestion_bound;
    Alcotest.test_case "online no-bottleneck factor" `Quick
      test_online_no_bottleneck_factor;
    Alcotest.test_case "single-tree baseline" `Quick test_single_tree_baseline;
    Alcotest.test_case "interior-disjoint baseline" `Quick
      test_interior_disjoint_baseline;
    Alcotest.test_case "multi-tree beats single tree" `Quick
      test_multi_tree_beats_single_tree;
    Alcotest.test_case "mcf certificate stop: Setup A" `Quick
      (certificate_stop_setup_a mcf ~epsilon:mcf_epsilon);
    Alcotest.test_case "mcf certificate stop: Waxman 60" `Quick
      (certificate_stop_waxman mcf ~epsilon:mcf_epsilon);
    Alcotest.test_case "mcf warm demand scale: bound >= 2" `Quick
      test_warm_demand_scale_doubles;
    Alcotest.test_case "mcf warm demand scale: bound < 2" `Quick
      test_warm_demand_scale_keeps;
  ]
