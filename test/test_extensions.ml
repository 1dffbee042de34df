(* Tests for the extension modules: Gomory_hu, Bounds,
   Unsplittable_exact, Transit_stub, randomized IP tie-breaking, and
   the churn simulator. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-6))

(* --- Gomory-Hu ---------------------------------------------------------- *)

let brute_min_cut g u v =
  let net, _ = Maxflow.of_graph g in
  Maxflow.max_flow net ~source:u ~sink:v

let test_gomory_hu_path () =
  let g = Graph.of_edges ~n:4 [ (0, 1, 5.0); (1, 2, 2.0); (2, 3, 7.0) ] in
  let t = Gomory_hu.build g in
  checkf "adjacent" 5.0 (Gomory_hu.min_cut_value t 0 1);
  checkf "across weak edge" 2.0 (Gomory_hu.min_cut_value t 0 3);
  checkf "strong pair" 2.0 (Gomory_hu.min_cut_value t 1 3)

let test_gomory_hu_members () =
  let g = Graph.of_edges ~n:4 [ (0, 1, 5.0); (1, 2, 2.0); (2, 3, 7.0) ] in
  let t = Gomory_hu.build g in
  checkf "weakest pair bound" 2.0 (Gomory_hu.min_cut_over_members t [| 0; 1; 3 |]);
  checkf "strong subset" 5.0 (Gomory_hu.min_cut_over_members t [| 0; 1 |])

let test_gomory_hu_disconnected () =
  let g = Graph.of_edges ~n:3 [ (0, 1, 1.0) ] in
  Alcotest.check_raises "disconnected" (Failure "Gomory_hu.build: disconnected")
    (fun () -> ignore (Gomory_hu.build g))

let random_connected_graph =
  let gen =
    QCheck.Gen.(
      int_range 2 9 >>= fun n ->
      int_range 0 (2 * n) >>= fun extra ->
      let tree_edges =
        List.init (n - 1) (fun i ->
            map (fun j -> (i + 1, j mod (i + 1))) (int_range 0 i))
      in
      flatten_l tree_edges >>= fun tree ->
      list_repeat extra (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
      >>= fun more ->
      let all = tree @ List.filter (fun (a, b) -> a <> b) more in
      list_repeat (List.length all) (float_range 0.5 9.0) >>= fun ws ->
      return (n, List.map2 (fun (a, b) w -> (a, b, w)) all ws))
  in
  QCheck.make gen

let qcheck_gomory_hu_all_pairs =
  QCheck.Test.make ~name:"gomory-hu agrees with per-pair max-flow" ~count:60
    random_connected_graph
    (fun (n, edges) ->
      let g = Graph.of_edges ~n edges in
      let t = Gomory_hu.build g in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          let tree_cut = Gomory_hu.min_cut_value t u v in
          let flow = brute_min_cut g u v in
          if abs_float (tree_cut -. flow) > 1e-6 then ok := false
        done
      done;
      !ok)

(* --- Bounds ---------------------------------------------------------------- *)

let env seed =
  let rng = Rng.create seed in
  let topo = Waxman.generate rng { Waxman.default_params with n = 40 } in
  (rng, topo.Topology.graph)

let test_bounds_simple () =
  (* path 0 -5- 1 -2- 2: session {0,2} bounded by cut 2 *)
  let g = Graph.of_edges ~n:3 [ (0, 1, 5.0); (1, 2, 2.0) ] in
  let s = Session.create ~id:0 ~members:[| 0; 2 |] ~demand:1.0 in
  checkf "degree bound" 2.0 (Bounds.member_degree_bound g s);
  checkf "cut bound" 2.0 (Bounds.pairwise_cut_bound g s);
  checkf "combined" 2.0 (Bounds.session_rate_upper_bound g s)

let test_bounds_hold_for_maxflow () =
  let rng, g = env 31 in
  let sessions =
    Array.init 2 (fun id ->
        Session.random rng ~id ~topology_size:40 ~size:5 ~demand:100.0)
  in
  let overlays = Array.map (Overlay.create g Overlay.Ip) sessions in
  let r = Max_flow.solve g overlays ~epsilon:0.05 in
  Alcotest.(check (list int)) "no violations" []
    (Bounds.check_solution g r.Max_flow.solution);
  checkb "throughput under capacity ceiling" true
    (Solution.overall_throughput r.Max_flow.solution
    <= Bounds.total_capacity_bound g r.Max_flow.solution)

let test_bounds_detect_violation () =
  let g = Graph.of_edges ~n:3 [ (0, 1, 5.0); (1, 2, 2.0) ] in
  let s = Session.create ~id:0 ~members:[| 0; 2 |] ~demand:1.0 in
  let sol = Solution.create [| s |] in
  let tree =
    Otree.build ~session_id:0 ~pairs:[| (0, 1) |]
      ~routes:[| Route.make ~src:0 ~dst:2 [| 0; 1 |] |]
  in
  Solution.add sol tree 10.0 (* way over the cut bound of 2 *);
  Alcotest.(check (list int)) "violation flagged" [ 0 ] (Bounds.check_solution g sol)

(* --- Unsplittable_exact ------------------------------------------------------ *)

let test_unsplittable_simple () =
  (* two 2-member sessions sharing one bottleneck edge *)
  let g = Graph.of_edges ~n:4 [ (0, 1, 10.0); (1, 2, 4.0); (2, 3, 10.0) ] in
  let s0 = Session.create ~id:0 ~members:[| 0; 3 |] ~demand:1.0 in
  let s1 = Session.create ~id:1 ~members:[| 1; 2 |] ~demand:1.0 in
  let overlays = Array.map (Overlay.create g Overlay.Ip) [| s0; s1 |] in
  let r = Unsplittable_exact.solve g overlays in
  (* both sessions must cross edge 1 (cap 4); each has exactly one tree,
     loads 1+1 = 2 on edge 1 -> congestion 1/2 -> f = 2 *)
  checkf "objective" 2.0 r.Unsplittable_exact.objective;
  checki "explored both" 1 r.Unsplittable_exact.combinations

let test_unsplittable_dominates_online () =
  let rng, g = env 32 in
  let sessions =
    Array.init 2 (fun id ->
        Session.random rng ~id ~topology_size:40 ~size:4 ~demand:1.0)
  in
  let overlays = Array.map (Overlay.create g Overlay.Ip) sessions in
  let exact = Unsplittable_exact.solve g overlays in
  let online_overlays = Array.map (Overlay.create g Overlay.Ip) sessions in
  let online = Online.solve g online_overlays ~sigma:30.0 in
  let online_f = Solution.concurrent_ratio online.Online.solution in
  checkb
    (Printf.sprintf "exact %.3f >= online %.3f" exact.Unsplittable_exact.objective
       online_f)
    true
    (exact.Unsplittable_exact.objective >= online_f -. 1e-9)

let test_unsplittable_guard () =
  let rng, g = env 33 in
  let sessions =
    Array.init 3 (fun id ->
        Session.random rng ~id ~topology_size:40 ~size:7 ~demand:1.0)
  in
  let overlays = Array.map (Overlay.create g Overlay.Ip) sessions in
  checkb "guard trips" true
    (try
       ignore (Unsplittable_exact.solve ~max_combinations:1000 g overlays);
       false
     with Invalid_argument _ -> true)

(* --- Transit_stub --------------------------------------------------------------- *)

let test_transit_stub_shape () =
  let rng = Rng.create 35 in
  let p = Transit_stub.default_params in
  let t = Transit_stub.generate rng p in
  let expected =
    p.Transit_stub.transit_nodes
    + p.Transit_stub.transit_nodes * p.Transit_stub.stubs_per_transit
      * p.Transit_stub.stub_size
  in
  checki "node count" expected (Topology.n_nodes t);
  checkb "connected" true (Topology.check t = None);
  (* backbone routers are marked *)
  for v = 0 to p.Transit_stub.transit_nodes - 1 do
    checkb "backbone flagged" true t.Topology.nodes.(v).Topology.is_border
  done;
  (* stub domains get distinct as ids *)
  checkb "stub as ids assigned" true
    (t.Topology.nodes.(expected - 1).Topology.as_id > 0)

let test_transit_stub_funnels_traffic () =
  (* cross-stub routes must pass through the backbone *)
  let rng = Rng.create 36 in
  let p = { Transit_stub.default_params with transit_nodes = 4; stubs_per_transit = 2 } in
  let t = Transit_stub.generate rng p in
  let g = t.Topology.graph in
  let n = Topology.n_nodes t in
  (* pick one router from the first and last stub *)
  let a = p.Transit_stub.transit_nodes (* first stub router *) in
  let b = n - 1 in
  let table = Ip_routing.compute g ~members:[| a; b |] in
  let route = Ip_routing.route table a b in
  let touches_backbone = ref false in
  Route.iter_edges route (fun id ->
      let u, v = Graph.endpoints g id in
      if u < p.Transit_stub.transit_nodes || v < p.Transit_stub.transit_nodes then
        touches_backbone := true);
  checkb "route crosses backbone" true
    (!touches_backbone || t.Topology.nodes.(a).Topology.as_id = t.Topology.nodes.(b).Topology.as_id)

(* --- randomized IP tie-breaking ---------------------------------------------------- *)

let test_randomized_routes_still_shortest () =
  let _, g = env 37 in
  let rng = Rng.create 38 in
  let members = Rng.sample_without_replacement rng ~n:40 ~k:6 in
  let table = Ip_routing.compute_randomized g (Rng.create 99) ~members in
  Array.iter
    (fun u ->
      Array.iter
        (fun v ->
          if u <> v then begin
            let r = Ip_routing.route table u v in
            checkb "valid" true (Route.is_valid g r);
            let d = Traverse.bfs g ~source:u in
            checki "hop-shortest despite jitter" d.(v) (Route.hops r)
          end)
        members)
    members

let test_randomized_seed_changes_ties () =
  (* a 4-cycle has two equal-hop routes between opposite corners; over
     several seeds both should appear *)
  let g =
    Graph.of_edges ~n:4 [ (0, 1, 1.0); (1, 2, 1.0); (2, 3, 1.0); (3, 0, 1.0) ]
  in
  let seen = Hashtbl.create 2 in
  for seed = 0 to 19 do
    let table = Ip_routing.compute_randomized g (Rng.create seed) ~members:[| 0; 2 |] in
    let r = Ip_routing.route table 0 2 in
    Hashtbl.replace seen r.Route.edges ()
  done;
  checkb "both tie-broken routes occur" true (Hashtbl.length seen >= 2)

(* --- Churn --------------------------------------------------------------------------- *)

let churn_graph () =
  let rng = Rng.create 40 in
  (Waxman.generate rng { Waxman.default_params with n = 40 }).Topology.graph

let test_churn_trace_sane () =
  let g = churn_graph () in
  let r = Churn.run (Rng.create 41) g Churn.default_config in
  checkb "nonempty trace" true (List.length r.Churn.trace > 10);
  let last_time = ref 0.0 in
  List.iter
    (fun s ->
      checkb "time monotone" true (s.Churn.time >= !last_time -. 1e-9);
      last_time := s.Churn.time;
      checkb "counts consistent" true
        (s.Churn.active_sessions <= s.Churn.accepted);
      checkb "rates nonnegative" true (s.Churn.min_rate >= 0.0))
    r.Churn.trace

let test_churn_load_released () =
  (* a short burst followed by a long drain: final congestion ~ 0 *)
  let g = churn_graph () in
  let config =
    { Churn.default_config with Churn.horizon = 200.0; arrival_rate = 0.2;
      mean_holding_time = 2.0 }
  in
  let r = Churn.run (Rng.create 42) g config in
  (match List.rev r.Churn.trace with
   | last :: _ ->
     checkb "few actives at the end" true (last.Churn.active_sessions <= 3)
   | [] -> Alcotest.fail "empty trace");
  (* all sessions that departed released their exact load: congestion of
     the final state only reflects still-active sessions *)
  let residual = Array.fold_left ( +. ) 0.0 r.Churn.final_congestion in
  checkb "residual bounded" true (residual >= 0.0)

let test_churn_determinism () =
  let g = churn_graph () in
  let a = Churn.run (Rng.create 43) g Churn.default_config in
  let b = Churn.run (Rng.create 43) g Churn.default_config in
  checki "same event count" (List.length a.Churn.trace) (List.length b.Churn.trace);
  List.iter2
    (fun (x : Churn.snapshot) (y : Churn.snapshot) ->
      checkf "same times" x.Churn.time y.Churn.time;
      checki "same actives" x.Churn.active_sessions y.Churn.active_sessions)
    a.Churn.trace b.Churn.trace

let test_churn_admission_control () =
  let g = churn_graph () in
  let open_door =
    Churn.run (Rng.create 44) g
      { Churn.default_config with Churn.arrival_rate = 3.0; horizon = 30.0 }
  in
  let strict =
    Churn.run (Rng.create 44) g
      { Churn.default_config with Churn.arrival_rate = 3.0; horizon = 30.0;
        admission_threshold = 0.02 }
  in
  let rejected trace =
    match List.rev trace with [] -> 0 | last :: _ -> last.Churn.rejected
  in
  checki "open door rejects none" 0 (rejected open_door.Churn.trace);
  checkb "strict door rejects some" true (rejected strict.Churn.trace > 0);
  (* admission keeps congestion at or under the threshold-ish region *)
  List.iter
    (fun s ->
      checkb "congestion capped" true (s.Churn.max_congestion <= 0.02 +. 0.05))
    strict.Churn.trace

let test_churn_validation () =
  let g = churn_graph () in
  checkb "bad size rejected" true
    (try
       ignore
         (Churn.run (Rng.create 1) g { Churn.default_config with Churn.size_min = 1 });
       false
     with Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "gomory-hu path" `Quick test_gomory_hu_path;
    Alcotest.test_case "gomory-hu members" `Quick test_gomory_hu_members;
    Alcotest.test_case "gomory-hu disconnected" `Quick test_gomory_hu_disconnected;
    QCheck_alcotest.to_alcotest qcheck_gomory_hu_all_pairs;
    Alcotest.test_case "bounds simple" `Quick test_bounds_simple;
    Alcotest.test_case "bounds hold for maxflow" `Quick test_bounds_hold_for_maxflow;
    Alcotest.test_case "bounds detect violation" `Quick test_bounds_detect_violation;
    Alcotest.test_case "unsplittable simple" `Quick test_unsplittable_simple;
    Alcotest.test_case "unsplittable dominates online" `Quick
      test_unsplittable_dominates_online;
    Alcotest.test_case "unsplittable guard" `Quick test_unsplittable_guard;
    Alcotest.test_case "transit-stub shape" `Quick test_transit_stub_shape;
    Alcotest.test_case "transit-stub funnels traffic" `Quick
      test_transit_stub_funnels_traffic;
    Alcotest.test_case "randomized ties stay shortest" `Quick
      test_randomized_routes_still_shortest;
    Alcotest.test_case "randomized ties vary" `Quick test_randomized_seed_changes_ties;
    Alcotest.test_case "churn trace sane" `Quick test_churn_trace_sane;
    Alcotest.test_case "churn load released" `Quick test_churn_load_released;
    Alcotest.test_case "churn determinism" `Quick test_churn_determinism;
    Alcotest.test_case "churn admission control" `Quick test_churn_admission_control;
    Alcotest.test_case "churn validation" `Quick test_churn_validation;
  ]
