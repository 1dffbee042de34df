(* Tests for Session, Otree, Overlay, Solution, Metrics. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))
let checkf6 = Alcotest.(check (float 1e-6))

(* --- Session -------------------------------------------------------------- *)

let test_session_create () =
  let s = Session.create ~id:0 ~members:[| 4; 7; 9 |] ~demand:2.0 in
  checki "size" 3 (Session.size s);
  checki "receivers" 2 (Session.receivers s);
  checki "source" 4 (Session.source s)

let test_session_validation () =
  Alcotest.check_raises "too small"
    (Invalid_argument "Session.create: need at least 2 members") (fun () ->
      ignore (Session.create ~id:0 ~members:[| 1 |] ~demand:1.0));
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Session.create: duplicate member") (fun () ->
      ignore (Session.create ~id:0 ~members:[| 1; 1 |] ~demand:1.0));
  Alcotest.check_raises "bad demand"
    (Invalid_argument "Session.create: demand must be positive") (fun () ->
      ignore (Session.create ~id:0 ~members:[| 1; 2 |] ~demand:0.0))

let test_session_random_distinct () =
  let rng = Rng.create 1 in
  for _ = 1 to 20 do
    let s = Session.random rng ~id:0 ~topology_size:30 ~size:8 ~demand:1.0 in
    checki "size" 8 (Session.size s)
  done

let test_session_replicate () =
  let rng = Rng.create 2 in
  let base = Session.random_batch rng ~topology_size:30 ~count:2 ~size:4 ~demand:5.0 in
  let reps = Session.replicate base ~copies:3 ~demand:1.0 in
  checki "count" 6 (Array.length reps);
  checkf "demand overridden" 1.0 reps.(0).Session.demand;
  (* replica i mirrors original (i mod 2) *)
  Alcotest.(check (array int)) "members preserved" base.(1).Session.members
    reps.(3).Session.members;
  checki "ids dense" 5 reps.(5).Session.id;
  checki "max size" 4 (Session.max_size reps)

(* --- Otree ------------------------------------------------------------------ *)

(* physical path graph 0-1-2-3 with capacities 10, 4, 8 *)
let phys () = Graph.of_edges ~n:4 [ (0, 1, 10.0); (1, 2, 4.0); (2, 3, 8.0) ]

let route_03 () = Route.make ~src:0 ~dst:3 [| 0; 1; 2 |]
let route_02 () = Route.make ~src:0 ~dst:2 [| 0; 1 |]

let test_otree_usage_counts () =
  (* overlay tree on member slots {0,1,2} = vertices {0,3,2}:
     overlay edges (0,1)->route 0..3 and (0,2)->route 0..2.
     physical edges 0 and 1 are shared by both routes: n_e = 2. *)
  let t =
    Otree.build ~session_id:0
      ~pairs:[| (0, 1); (0, 2) |]
      ~routes:[| route_03 (); route_02 () |]
  in
  checki "n_e shared edge 0" 2 (Otree.n_e t 0);
  checki "n_e shared edge 1" 2 (Otree.n_e t 1);
  checki "n_e lone edge 2" 1 (Otree.n_e t 2);
  checki "n_e absent" 0 (Otree.n_e t 99)

let test_otree_weight_bottleneck () =
  let g = phys () in
  let t =
    Otree.build ~session_id:0
      ~pairs:[| (0, 1); (0, 2) |]
      ~routes:[| route_03 (); route_02 () |]
  in
  (* weight under unit lengths = total physical traversals = 3 + 2 *)
  checkf "weight" 5.0 (Otree.weight t (Array.make (Graph.n_edges g) 1.0));
  (* bottleneck: edge 1 has capacity 4 used twice -> 2.0 *)
  checkf "bottleneck" 2.0
    (Otree.bottleneck t (Array.init (Graph.n_edges g) (Graph.capacity g)))

let test_otree_canonicalization () =
  let a =
    Otree.build ~session_id:0
      ~pairs:[| (2, 0); (1, 0) |]
      ~routes:[| route_02 (); route_03 () |]
  in
  let b =
    Otree.build ~session_id:0
      ~pairs:[| (0, 1); (0, 2) |]
      ~routes:[| route_03 (); route_02 () |]
  in
  checkb "same tree" true (Otree.equal a b);
  checkb "same pairs" true (a.Otree.pairs = b.Otree.pairs)

let test_otree_identity_distinguishes_routes () =
  let a =
    Otree.build ~session_id:0 ~pairs:[| (0, 1) |] ~routes:[| route_03 () |]
  in
  let b =
    Otree.build ~session_id:0 ~pairs:[| (0, 1) |]
      ~routes:[| Route.make ~src:0 ~dst:3 [| 0; 1 |] |]
  in
  checkb "different realization, different tree" false (Otree.equal a b);
  checkb "same shape" true (a.Otree.pairs = b.Otree.pairs);
  checki "one shape, one hash" (Otree.hash a) (Otree.hash b)

let test_otree_spanning () =
  let t =
    Otree.build ~session_id:0
      ~pairs:[| (0, 1); (0, 2) |]
      ~routes:[| route_03 (); route_02 () |]
  in
  checkb "spans 3 members" true (Otree.is_spanning t ~n_members:3);
  checkb "not 4 members" false (Otree.is_spanning t ~n_members:4)

(* --- Overlay ------------------------------------------------------------------ *)

let small_topo () =
  let rng = Rng.create 11 in
  Waxman.generate rng { Waxman.default_params with n = 30 }

let test_overlay_mst_is_minimal () =
  (* brute-force check: the minimum overlay spanning tree has minimum
     weight among all enumerated overlay trees *)
  let topo = small_topo () in
  let g = topo.Topology.graph in
  let rng = Rng.create 12 in
  let s = Session.random rng ~id:0 ~topology_size:30 ~size:5 ~demand:1.0 in
  let overlay = Overlay.create g Overlay.Ip s in
  let lens = Array.init (Graph.n_edges g) (fun i -> 0.3 +. float_of_int ((i * 7) mod 5)) in
  let length i = lens.(i) in
  let mst = Overlay.min_spanning_tree overlay ~length in
  let w_mst = Otree.weight mst lens in
  List.iter
    (fun tree_pairs ->
      let t = Overlay.tree_of_pairs overlay ~pairs:(Array.of_list tree_pairs) ~length in
      checkb "mst minimal" true (Otree.weight t lens >= w_mst -. 1e-9))
    (Prufer.enumerate 5)

let test_overlay_ops_counter () =
  let topo = small_topo () in
  let g = topo.Topology.graph in
  let rng = Rng.create 13 in
  let s = Session.random rng ~id:0 ~topology_size:30 ~size:4 ~demand:1.0 in
  let overlay = Overlay.create g Overlay.Ip s in
  checki "starts at 0" 0 (Overlay.mst_operations overlay);
  ignore (Overlay.min_spanning_tree overlay ~length:Dijkstra.hop_length);
  ignore (Overlay.min_spanning_tree overlay ~length:Dijkstra.hop_length);
  checki "counts" 2 (Overlay.mst_operations overlay);
  Overlay.reset_mst_operations overlay;
  checki "reset" 0 (Overlay.mst_operations overlay)

let test_overlay_modes_agree_on_uniform_lengths () =
  (* with uniform lengths the dynamic shortest paths are hop-shortest,
     so both modes give trees of equal weight *)
  let topo = small_topo () in
  let g = topo.Topology.graph in
  let rng = Rng.create 14 in
  let s = Session.random rng ~id:0 ~topology_size:30 ~size:5 ~demand:1.0 in
  let ip = Overlay.create g Overlay.Ip s in
  let arb = Overlay.create g Overlay.Arbitrary s in
  let t_ip = Overlay.min_spanning_tree ip ~length:Dijkstra.hop_length in
  let t_arb = Overlay.min_spanning_tree arb ~length:Dijkstra.hop_length in
  let hops = Array.make (Graph.n_edges g) 1.0 in
  checkf6 "same weight" (Otree.weight t_ip hops) (Otree.weight t_arb hops)

let test_overlay_tree_spans () =
  let topo = small_topo () in
  let g = topo.Topology.graph in
  let rng = Rng.create 15 in
  let s = Session.random rng ~id:0 ~topology_size:30 ~size:6 ~demand:1.0 in
  let overlay = Overlay.create g Overlay.Ip s in
  let t = Overlay.min_spanning_tree overlay ~length:Dijkstra.hop_length in
  checkb "spanning" true (Otree.is_spanning t ~n_members:6);
  (* every route is a valid physical path *)
  Array.iter
    (fun r -> checkb "route valid" true (Route.is_valid g r))
    t.Otree.routes

let test_overlay_with_session_shares_routes () =
  let topo = small_topo () in
  let g = topo.Topology.graph in
  let rng = Rng.create 16 in
  let s = Session.random rng ~id:0 ~topology_size:30 ~size:5 ~demand:1.0 in
  let overlay = Overlay.create g Overlay.Ip s in
  let replica = Session.create ~id:7 ~members:s.Session.members ~demand:2.0 in
  let shared = Overlay.with_session overlay replica in
  (* identical member set -> identical trees, fresh op counter, new id *)
  let t1 = Overlay.min_spanning_tree overlay ~length:Dijkstra.hop_length in
  let t2 = Overlay.min_spanning_tree shared ~length:Dijkstra.hop_length in
  checkb "same tree" true (Otree.equal t1 t2);
  checki "replica session id" 7 t2.Otree.session_id;
  checki "counters independent" 1 (Overlay.mst_operations shared);
  (* different members rejected *)
  let other = Session.random rng ~id:9 ~topology_size:30 ~size:5 ~demand:1.0 in
  checkb "member mismatch rejected" true
    (try
       ignore (Overlay.with_session overlay other);
       false
     with Invalid_argument _ -> true)

(* --- Solution ------------------------------------------------------------------ *)

let two_sessions () =
  let g = phys () in
  let s0 = Session.create ~id:0 ~members:[| 0; 3 |] ~demand:1.0 in
  let s1 = Session.create ~id:1 ~members:[| 0; 2; 3 |] ~demand:2.0 in
  (g, [| s0; s1 |])

let tree_for sid pairs routes = Otree.build ~session_id:sid ~pairs ~routes

let test_solution_accumulates () =
  let _, sessions = two_sessions () in
  let sol = Solution.create sessions in
  let t = tree_for 0 [| (0, 1) |] [| route_03 () |] in
  Solution.add sol t 2.0;
  Solution.add sol t 3.0;
  checkf "rates accumulate on same tree" 5.0 (Solution.session_rate sol 0);
  checki "one distinct tree" 1 (Solution.n_trees sol 0);
  checki "other session empty" 0 (Solution.n_trees sol 1)

let test_solution_throughput_weighted_by_receivers () =
  let _, sessions = two_sessions () in
  let sol = Solution.create sessions in
  Solution.add sol (tree_for 0 [| (0, 1) |] [| route_03 () |]) 4.0;
  Solution.add sol
    (tree_for 1 [| (0, 1); (1, 2) |]
       [| route_02 (); Route.make ~src:2 ~dst:3 [| 2 |] |])
    3.0;
  (* session 0 has 1 receiver, session 1 has 2 *)
  checkf "throughput" (4.0 +. 6.0) (Solution.overall_throughput sol);
  checkf "concurrent ratio" (3.0 /. 2.0) (Solution.concurrent_ratio sol);
  checkf "min rate" 3.0 (Solution.min_rate sol)

let test_solution_link_load_and_congestion () =
  let g, sessions = two_sessions () in
  let sol = Solution.create sessions in
  Solution.add sol (tree_for 0 [| (0, 1) |] [| route_03 () |]) 2.0;
  let loads = Solution.link_load sol g in
  checkf "edge0 load" 2.0 loads.(0);
  checkf "edge1 load" 2.0 loads.(1);
  (* capacity of edge 1 is 4 -> congestion 0.5 *)
  checkf "congestion" 0.5 (Solution.max_congestion sol g);
  checkb "feasible" true (Solution.is_feasible sol g ~tol:0.0);
  Solution.scale sol 3.0;
  checkf "scaled congestion" 1.5 (Solution.max_congestion sol g);
  checkb "infeasible" false (Solution.is_feasible sol g ~tol:0.0)

let test_solution_scale_session () =
  let _, sessions = two_sessions () in
  let sol = Solution.create sessions in
  Solution.add sol (tree_for 0 [| (0, 1) |] [| route_03 () |]) 2.0;
  Solution.add sol
    (tree_for 1 [| (0, 1); (1, 2) |]
       [| route_02 (); Route.make ~src:2 ~dst:3 [| 2 |] |])
    2.0;
  Solution.scale_session sol 0 0.5;
  checkf "session 0 scaled" 1.0 (Solution.session_rate sol 0);
  checkf "session 1 untouched" 2.0 (Solution.session_rate sol 1)

let test_solution_copy_merge () =
  let _, sessions = two_sessions () in
  let sol = Solution.create sessions in
  Solution.add sol (tree_for 0 [| (0, 1) |] [| route_03 () |]) 2.0;
  let dup = Solution.copy sol in
  Solution.scale dup 2.0;
  checkf "copy independent" 2.0 (Solution.session_rate sol 0);
  checkf "copy scaled" 4.0 (Solution.session_rate dup 0);
  Solution.merge_from sol dup;
  checkf "merged" 6.0 (Solution.session_rate sol 0)

(* Trees are listed in the order [add] first saw them, whatever their
   later rates; a copy keeps that order, and [merge_from] appends the
   other solution's new trees in its order. *)
let test_solution_first_add_order () =
  let session = Session.create ~id:0 ~members:[| 0; 1; 2 |] ~demand:1.0 in
  let tree e =
    tree_for 0 [| (0, 1); (1, 2) |]
      [|
        { Route.src = 0; dst = 1; edges = [| e |] };
        { Route.src = 1; dst = 2; edges = [| 9 |] };
      |]
  in
  let ts = Array.map tree [| 5; 2; 7; 0 |] in
  let sol = Solution.create [| session |] in
  List.iter
    (fun (i, rate) -> Solution.add sol ts.(i) rate)
    [ (0, 1.0); (1, 2.0); (0, 4.0); (2, 8.0); (3, 16.0); (1, 32.0) ];
  let check_order what sol order rates =
    checkb (what ^ ": trees") true
      (List.equal Otree.equal
         (List.map fst (Solution.trees sol 0))
         (List.map (fun i -> ts.(i)) order));
    Alcotest.(check (array (float 0.0)))
      (what ^ ": tree_rates") rates (Solution.tree_rates sol 0)
  in
  check_order "added" sol [ 0; 1; 2; 3 ] [| 5.0; 34.0; 8.0; 16.0 |];
  check_order "copy" (Solution.copy sol) [ 0; 1; 2; 3 ]
    [| 5.0; 34.0; 8.0; 16.0 |];
  let merged = Solution.create [| session |] in
  Solution.add merged ts.(2) 1.0;
  Solution.merge_from merged sol;
  check_order "merged" merged [ 2; 0; 1; 3 ] [| 9.0; 5.0; 34.0; 16.0 |]

(* Routes [1; 23] and [12; 3] on one pair print the same digits, but
   they are two trees: each keeps its own rate, and Metrics counts two. *)
let test_solution_lookalike_routes () =
  let session = Session.create ~id:0 ~members:[| 0; 1 |] ~demand:1.0 in
  let tree edges = tree_for 0 [| (0, 1) |] [| { Route.src = 0; dst = 1; edges } |] in
  let sol = Solution.create [| session |] in
  Solution.add sol (tree [| 1; 23 |]) 1.0;
  Solution.add sol (tree [| 12; 3 |]) 2.0;
  checki "two trees" 2 (Solution.n_trees sol 0);
  Alcotest.(check (array (float 0.0)))
    "each keeps its rate" [| 1.0; 2.0 |] (Solution.tree_rates sol 0);
  checki "Metrics counts two trees" 2
    (Metrics.aggregate_replicated_trees sol ~original_of_slot:[| 0 |]
       ~originals:1).(0)

let test_solution_rejects_unknown_session () =
  let _, sessions = two_sessions () in
  let sol = Solution.create sessions in
  let foreign = tree_for 9 [| (0, 1) |] [| route_03 () |] in
  Alcotest.check_raises "unknown session"
    (Invalid_argument "Solution.add: tree from an unknown session") (fun () ->
      Solution.add sol foreign 1.0)

(* --- Metrics ------------------------------------------------------------------- *)

let test_metrics_utilization () =
  let g, sessions = two_sessions () in
  let sol = Solution.create sessions in
  Solution.add sol (tree_for 0 [| (0, 1) |] [| route_03 () |]) 2.0;
  let u = Metrics.link_utilization sol g ~edges:[| 0; 1; 2 |] in
  checkf "edge0" 0.2 u.(0);
  checkf "edge1" 0.5 u.(1);
  checkf "edge2" 0.25 u.(2);
  let curve = Metrics.utilization_curve sol g ~edges:[| 0; 1; 2 |] in
  checkf "descending head" 0.5 curve.(0).Cdf.y

let test_metrics_aggregation () =
  let g, _ = two_sessions () in
  ignore g;
  let replicas =
    [|
      Session.create ~id:0 ~members:[| 0; 3 |] ~demand:1.0;
      Session.create ~id:1 ~members:[| 0; 3 |] ~demand:1.0;
      Session.create ~id:2 ~members:[| 0; 3 |] ~demand:1.0;
    |]
  in
  let sol = Solution.create replicas in
  Solution.add sol (tree_for 0 [| (0, 1) |] [| route_03 () |]) 1.0;
  Solution.add sol (tree_for 1 [| (0, 1) |] [| route_03 () |]) 2.0;
  Solution.add sol (tree_for 2 [| (0, 1) |] [| route_03 () |]) 4.0;
  (* slots 0 and 2 belong to original 0; slot 1 to original 1 *)
  let rates =
    Metrics.aggregate_replicated_rates sol ~original_of_slot:[| 0; 1; 0 |]
      ~originals:2
  in
  checkf "original 0" 5.0 rates.(0);
  checkf "original 1" 2.0 rates.(1);
  let distinct =
    Metrics.aggregate_replicated_trees sol ~original_of_slot:[| 0; 1; 0 |]
      ~originals:2
  in
  (* replicas of original 0 picked the same physical tree -> 1 distinct *)
  checki "distinct trees folded" 1 distinct.(0);
  checki "distinct trees other" 1 distinct.(1)

let test_metrics_edges_per_node () =
  let topo = small_topo () in
  let g = topo.Topology.graph in
  let rng = Rng.create 21 in
  let sessions =
    Session.random_batch rng ~topology_size:30 ~count:2 ~size:5 ~demand:1.0
  in
  let overlays = Array.map (Overlay.create g Overlay.Ip) sessions in
  let epn = Metrics.edges_per_node overlays in
  checkb "positive" true (epn > 0.0);
  checkb "bounded by m/members" true
    (epn <= float_of_int (Graph.n_edges g) /. 10.0 +. 1e-9)

let suite =
  [
    Alcotest.test_case "session create" `Quick test_session_create;
    Alcotest.test_case "session validation" `Quick test_session_validation;
    Alcotest.test_case "session random distinct" `Quick test_session_random_distinct;
    Alcotest.test_case "session replicate" `Quick test_session_replicate;
    Alcotest.test_case "otree usage counts" `Quick test_otree_usage_counts;
    Alcotest.test_case "otree weight/bottleneck" `Quick test_otree_weight_bottleneck;
    Alcotest.test_case "otree canonicalization" `Quick test_otree_canonicalization;
    Alcotest.test_case "otree identity vs routes" `Quick
      test_otree_identity_distinguishes_routes;
    Alcotest.test_case "otree spanning" `Quick test_otree_spanning;
    Alcotest.test_case "overlay mst minimal" `Quick test_overlay_mst_is_minimal;
    Alcotest.test_case "overlay ops counter" `Quick test_overlay_ops_counter;
    Alcotest.test_case "overlay modes on uniform lengths" `Quick
      test_overlay_modes_agree_on_uniform_lengths;
    Alcotest.test_case "overlay tree spans" `Quick test_overlay_tree_spans;
    Alcotest.test_case "overlay with_session" `Quick test_overlay_with_session_shares_routes;
    Alcotest.test_case "solution accumulates" `Quick test_solution_accumulates;
    Alcotest.test_case "solution throughput" `Quick
      test_solution_throughput_weighted_by_receivers;
    Alcotest.test_case "solution load/congestion" `Quick
      test_solution_link_load_and_congestion;
    Alcotest.test_case "solution scale session" `Quick test_solution_scale_session;
    Alcotest.test_case "solution copy/merge" `Quick test_solution_copy_merge;
    Alcotest.test_case "solution first-add order" `Quick
      test_solution_first_add_order;
    Alcotest.test_case "solution look-alike routes stay two trees" `Quick
      test_solution_lookalike_routes;
    Alcotest.test_case "solution unknown session" `Quick
      test_solution_rejects_unknown_session;
    Alcotest.test_case "metrics utilization" `Quick test_metrics_utilization;
    Alcotest.test_case "metrics aggregation" `Quick test_metrics_aggregation;
    Alcotest.test_case "metrics edges per node" `Quick test_metrics_edges_per_node;
  ]
