(* Cross-cutting invariant sweep: random instances, every algorithm,
   every invariant that must hold regardless of topology — feasibility,
   cut bounds, fairness bounds — plus exact-LP validation of M2. *)

let checkb = Alcotest.(check bool)

let instance seed =
  let rng = Rng.create seed in
  let kind = seed mod 3 in
  let topo =
    match kind with
    | 0 -> Waxman.generate rng { Waxman.default_params with n = 40 }
    | 1 -> Barabasi.generate rng { Barabasi.default_params with n = 40 }
    | _ -> Two_level.generate rng (Two_level.small_params ~n_as:2 ~routers_per_as:20)
  in
  let g = topo.Topology.graph in
  let n = Topology.n_nodes topo in
  let count = 1 + (seed mod 3) in
  let sessions =
    Array.init count (fun id ->
        let size = 3 + ((seed + id) mod 4) in
        Session.random rng ~id ~topology_size:n ~size ~demand:(5.0 +. float_of_int id))
  in
  (g, sessions)

let all_solutions g sessions =
  let fresh () = Array.map (Overlay.create g Overlay.Ip) sessions in
  let mf = Max_flow.solve g (fresh ()) ~epsilon:0.06 in
  let mcf =
    Max_concurrent_flow.solve g (fresh ()) ~epsilon:0.05
      ~scaling:Max_concurrent_flow.Proportional
  in
  let rng = Rng.create 7 in
  let rr =
    Random_rounding.round rng g ~fractional:mcf.Max_concurrent_flow.solution
      ~trees_per_session:4
  in
  let online = Online.solve g (fresh ()) ~sigma:20.0 in
  let single = Baseline.single_tree g (fresh ()) in
  let refined =
    Refinement.improve g (fresh ())
      { Refinement.trees_per_session = 3; rounds = 3; sigma = 20.0 }
  in
  [
    ("maxflow", mf.Max_flow.solution);
    ("mcf", mcf.Max_concurrent_flow.solution);
    ("rounding", rr.Random_rounding.solution);
    ("online", online.Online.solution);
    ("single-tree", single.Baseline.solution);
    ("refinement", refined.Refinement.solution);
  ]

let test_invariant_sweep () =
  List.iter
    (fun seed ->
      let g, sessions = instance seed in
      List.iter
        (fun (name, solution) ->
          checkb
            (Printf.sprintf "seed %d %s feasible" seed name)
            true
            (Solution.is_feasible solution g ~tol:Check.default_tol);
          checkb
            (Printf.sprintf "seed %d %s within cut bounds" seed name)
            true
            (Bounds.check_solution g solution = []);
          checkb
            (Printf.sprintf "seed %d %s nonnegative rates" seed name)
            true
            (Array.for_all (fun r -> r >= 0.0) (Solution.rates solution)))
        (all_solutions g sessions))
    [ 60; 61; 62; 63 ]

(* exact LP for M2 over enumerated trees: max f subject to
   f * dem_i - sum_j f_ij <= 0 and capacity rows *)
let exact_m2 g overlays =
  let sessions = Array.map Overlay.session overlays in
  let k = Array.length overlays in
  let hops = Array.make (Graph.n_edges g) 1.0 in
  let trees_per_session =
    Array.map
      (fun o ->
        let size = Session.size (Overlay.session o) in
        List.map
          (fun edge_list ->
            Overlay.tree_of_pairs o ~pairs:(Array.of_list edge_list) hops)
          (Prufer.enumerate size))
      overlays
  in
  let all = Array.to_list trees_per_session |> List.concat in
  let nt = List.length all in
  let nvars = 1 + nt in
  let m = Graph.n_edges g in
  let rows = k + m in
  let a = Array.make_matrix rows nvars 0.0 in
  let b = Array.make rows 0.0 in
  (* fairness rows: f * dem_i - sum_j f_ij <= 0 *)
  for i = 0 to k - 1 do
    a.(i).(0) <- sessions.(i).Session.demand
  done;
  List.iteri
    (fun j t ->
      a.(t.Otree.session_id).(1 + j) <- -1.0;
      Otree.iter_usage t (fun e c -> a.(k + e).(1 + j) <- float_of_int c))
    all;
  for e = 0 to m - 1 do
    b.(k + e) <- Graph.capacity g e
  done;
  let c = Array.make nvars 0.0 in
  c.(0) <- 1.0;
  let sol = Simplex.maximize ~c ~a ~b in
  sol.Simplex.objective

let test_mcf_matches_exact_lp () =
  List.iter
    (fun seed ->
      let rng = Rng.create seed in
      let topo = Waxman.generate rng { Waxman.default_params with n = 25 } in
      let g = topo.Topology.graph in
      let sessions =
        Array.init 2 (fun id ->
            Session.random rng ~id ~topology_size:25 ~size:4
              ~demand:(10.0 *. float_of_int (id + 1)))
      in
      let overlays = Array.map (Overlay.create g Overlay.Ip) sessions in
      let opt = exact_m2 g overlays in
      let ratio = 0.88 in
      let fresh = Array.map (Overlay.create g Overlay.Ip) sessions in
      let r =
        Max_concurrent_flow.solve g fresh
          ~epsilon:(Max_concurrent_flow.ratio_to_epsilon ratio)
          ~scaling:Max_concurrent_flow.Proportional
      in
      let achieved = Solution.concurrent_ratio r.Max_concurrent_flow.solution in
      checkb
        (Printf.sprintf "seed %d: mcf %.4f within [%.4f, %.4f]" seed achieved
           (ratio *. opt) opt)
        true
        (achieved >= (ratio *. opt) -. 1e-6 && achieved <= opt +. 1e-6))
    [ 70; 71 ]

let test_maxflow_weak_duality_vs_mcf () =
  (* M2's optimum weighted by demand and receivers can never exceed M1's
     weighted throughput optimum: check the algorithms respect the
     ordering up to approximation slack *)
  let g, sessions = instance 64 in
  let fresh () = Array.map (Overlay.create g Overlay.Ip) sessions in
  let mf = Max_flow.solve g (fresh ()) ~epsilon:0.04 in
  let mcf =
    Max_concurrent_flow.solve g (fresh ()) ~epsilon:0.04
      ~scaling:Max_concurrent_flow.Proportional
  in
  let mf_thr = Solution.overall_throughput mf.Max_flow.solution in
  let mcf_thr = Solution.overall_throughput mcf.Max_concurrent_flow.solution in
  checkb
    (Printf.sprintf "MF thr %.1f >= (1-eps-ish) MCF thr %.1f" mf_thr mcf_thr)
    true
    (mf_thr >= 0.9 *. mcf_thr)

let suite =
  [
    Alcotest.test_case "invariant sweep (all algorithms)" `Slow test_invariant_sweep;
    Alcotest.test_case "mcf = exact LP (enumerated)" `Slow test_mcf_matches_exact_lp;
    Alcotest.test_case "mf >= mcf throughput" `Quick test_maxflow_weak_duality_vs_mcf;
  ]
