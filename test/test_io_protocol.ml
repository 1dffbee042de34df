(* Tests for the export layer (DOT/CSV/JSON) and the distributed
   protocol simulations (Narada-style mesh, SplitStream-style forest). *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let env seed =
  let rng = Rng.create seed in
  let topo = Waxman.generate rng { Waxman.default_params with n = 50 } in
  let g = topo.Topology.graph in
  let sessions =
    Array.init 2 (fun id ->
        Session.random rng ~id ~topology_size:50 ~size:6 ~demand:10.0)
  in
  (topo, g, sessions)

(* --- DOT ----------------------------------------------------------------- *)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_dot_graph () =
  let g = Graph.of_edges ~n:3 [ (0, 1, 5.0); (1, 2, 2.0) ] in
  let dot = Dot_export.graph g in
  checkb "graph header" true (contains ~needle:"graph overlay_capacity" dot);
  checkb "edge present" true (contains ~needle:"0 -- 1" dot);
  checkb "capacity label" true (contains ~needle:"label=\"5\"" dot)

let test_dot_topology () =
  let topo, _, _ = env 80 in
  let dot = Dot_export.topology topo in
  checkb "filled nodes" true (contains ~needle:"style=filled" dot)

let test_dot_overlay_tree () =
  let _, g, sessions = env 81 in
  let overlay = Overlay.create g Overlay.Ip sessions.(0) in
  let tree =
    Overlay.min_spanning_tree overlay (Array.make (Graph.n_edges g) 1.0)
  in
  let dot = Dot_export.overlay_tree g tree ~members:sessions.(0).Session.members in
  checkb "source marked" true (contains ~needle:"label=\"src\"" dot);
  checkb "tree links bold" true (contains ~needle:"color=blue" dot)

(* --- CSV ----------------------------------------------------------------- *)

let test_csv_escape () =
  checks "plain" "abc" (Csv_export.escape "abc");
  checks "comma quoted" "\"a,b\"" (Csv_export.escape "a,b");
  checks "quote doubled" "\"a\"\"b\"" (Csv_export.escape "a\"b")

let test_csv_render () =
  let text = Csv_export.render ~header:[ "a"; "b" ] [ [ "1"; "x,y" ] ] in
  checks "csv body" "a,b\n1,\"x,y\"\n" text;
  Alcotest.check_raises "ragged" (Invalid_argument "Csv_export.render: ragged row")
    (fun () -> ignore (Csv_export.render ~header:[ "a" ] [ [ "1"; "2" ] ]))

let test_csv_solution_and_curve () =
  let _, g, sessions = env 82 in
  let overlays = Array.map (Overlay.create g Overlay.Ip) sessions in
  let r = Max_flow.solve g overlays ~epsilon:0.05 in
  let rows = Csv_export.solution_rows r.Max_flow.solution in
  checkb "rows present" true (List.length rows > 0);
  let curve = Metrics.tree_rate_curve r.Max_flow.solution 0 in
  let text = Csv_export.curve ~label:"s0" curve in
  checkb "curve header" true (contains ~needle:"series,x,y" text)

(* --- JSON ---------------------------------------------------------------- *)

let test_json_scalars () =
  checks "null" "null" (Json_export.to_string Json_export.Null);
  checks "bool" "true" (Json_export.to_string (Json_export.Bool true));
  checks "int-like" "42" (Json_export.to_string (Json_export.Number 42.0));
  checks "string escape" "\"a\\\"b\\n\""
    (Json_export.to_string (Json_export.String "a\"b\n"))

let test_json_non_finite () =
  let checks = Alcotest.(check string) in
  checks "nan -> null" "null" (Json_export.to_string (Json_export.Number nan));
  checks "inf -> null" "null" (Json_export.to_string (Json_export.Number infinity));
  checks "-inf -> null" "null"
    (Json_export.to_string (Json_export.Number neg_infinity))

let test_json_compound () =
  let json =
    Json_export.Object_
      [ ("xs", Json_export.Array_ [ Json_export.Number 1.5; Json_export.Null ]) ]
  in
  checks "object" "{\"xs\":[1.5,null]}" (Json_export.to_string json)

let test_json_encoders () =
  let topo, g, sessions = env 83 in
  let overlays = Array.map (Overlay.create g Overlay.Ip) sessions in
  let r = Max_flow.solve g overlays ~epsilon:0.05 in
  let sol_json = Json_export.to_string (Json_export.solution r.Max_flow.solution) in
  checkb "solution json mentions rate" true (contains ~needle:"\"rate\"" sol_json);
  let topo_json = Json_export.to_string (Json_export.topology topo) in
  checkb "topology json has links" true (contains ~needle:"\"links\"" topo_json);
  checkb "topology json has capacity" true (contains ~needle:"\"capacity\"" topo_json)

(* --- Mesh protocol --------------------------------------------------------- *)

let test_mesh_builds_spanning_tree () =
  let _, g, sessions = env 84 in
  let overlay = Overlay.create g Overlay.Ip sessions.(0) in
  let tree, stats =
    Mesh_protocol.build (Rng.create 1) g overlay Mesh_protocol.default_config
  in
  checkb "spans session" true
    (Otree.is_spanning tree ~n_members:(Session.size sessions.(0)));
  checkb "mesh has links" true (stats.Mesh_protocol.mesh_links >= Session.size sessions.(0));
  checkb "depth positive" true (stats.Mesh_protocol.tree_depth >= 1)

let test_mesh_respects_degree_cap () =
  let _, g, sessions = env 85 in
  let overlay = Overlay.create g Overlay.Ip sessions.(0) in
  let config = { Mesh_protocol.default_config with Mesh_protocol.max_degree = 3 } in
  let _, stats = Mesh_protocol.build (Rng.create 2) g overlay config in
  (* mean degree can slightly exceed only if drops lag adds within a
     round; after the final round the cap holds on average *)
  checkb "degree bounded" true (stats.Mesh_protocol.mean_degree <= 3.5)

let test_mesh_solve_feasible_and_below_optimum () =
  let _, g, sessions = env 86 in
  let overlays = Array.map (Overlay.create g Overlay.Ip) sessions in
  let mesh =
    Mesh_protocol.solve (Rng.create 3) g overlays Mesh_protocol.default_config
  in
  checkb "feasible" true (Solution.is_feasible mesh.Baseline.solution g ~tol:Check.default_tol);
  let mf_overlays = Array.map (Overlay.create g Overlay.Ip) sessions in
  let mf = Max_flow.solve g mf_overlays ~epsilon:0.05 in
  checkb "below multi-tree optimum" true
    (Solution.overall_throughput mesh.Baseline.solution
    <= Solution.overall_throughput mf.Max_flow.solution /. 0.95 +. 1e-6)

(* --- Stripe forest ----------------------------------------------------------- *)

let test_forest_builds_stripes () =
  let _, g, sessions = env 87 in
  let overlay = Overlay.create g Overlay.Ip sessions.(0) in
  let config = { Stripe_forest.stripes = 3; out_degree_cap = 2 } in
  let trees, stats = Stripe_forest.build (Rng.create 4) g overlay config in
  checki "3 stripe trees" 3 (List.length trees);
  List.iter
    (fun tree ->
      checkb "spans" true (Otree.is_spanning tree ~n_members:(Session.size sessions.(0))))
    trees;
  checkb "depth recorded" true (stats.Stripe_forest.max_depth >= 1)

let test_forest_interior_disjointness () =
  (* with enough out-degree the no-violation construction keeps every
     non-source member interior in at most its own stripe *)
  let _, g, sessions = env 88 in
  let overlay = Overlay.create g Overlay.Ip sessions.(0) in
  let k = Session.size sessions.(0) in
  let config = { Stripe_forest.stripes = 2; out_degree_cap = k } in
  let trees, stats = Stripe_forest.build (Rng.create 5) g overlay config in
  checki "no forced violations" 0 stats.Stripe_forest.interior_violations;
  (* interior = has a child; check each member is interior in <= 1
     stripe beyond the source *)
  (* Otree canonicalizes pairs, losing parent orientation: in a tree
     rooted at the source (slot 0), a non-root member has a child iff
     its degree is at least 2 *)
  let interior_count = Array.make k 0 in
  List.iter
    (fun tree ->
      let deg = Array.make k 0 in
      Array.iter
        (fun (a, b) ->
          deg.(a) <- deg.(a) + 1;
          deg.(b) <- deg.(b) + 1)
        tree.Otree.pairs;
      for v = 1 to k - 1 do
        if deg.(v) >= 2 then interior_count.(v) <- interior_count.(v) + 1
      done)
    trees;
  for v = 1 to k - 1 do
    checkb "interior in at most one stripe" true (interior_count.(v) <= 1)
  done

let test_forest_solve_feasible () =
  let _, g, sessions = env 89 in
  let overlays = Array.map (Overlay.create g Overlay.Ip) sessions in
  let forest =
    Stripe_forest.solve (Rng.create 6) g overlays Stripe_forest.default_config
  in
  checkb "feasible" true (Solution.is_feasible forest.Baseline.solution g ~tol:Check.default_tol);
  Array.iteri
    (fun i _ ->
      checki "stripes per session" Stripe_forest.default_config.Stripe_forest.stripes
        (Solution.n_trees forest.Baseline.solution i))
    sessions

let suite =
  [
    Alcotest.test_case "dot graph" `Quick test_dot_graph;
    Alcotest.test_case "dot topology" `Quick test_dot_topology;
    Alcotest.test_case "dot overlay tree" `Quick test_dot_overlay_tree;
    Alcotest.test_case "csv escape" `Quick test_csv_escape;
    Alcotest.test_case "csv render" `Quick test_csv_render;
    Alcotest.test_case "csv solution & curve" `Quick test_csv_solution_and_curve;
    Alcotest.test_case "json scalars" `Quick test_json_scalars;
    Alcotest.test_case "json compound" `Quick test_json_compound;
    Alcotest.test_case "json non-finite" `Quick test_json_non_finite;
    Alcotest.test_case "json encoders" `Quick test_json_encoders;
    Alcotest.test_case "mesh spanning tree" `Quick test_mesh_builds_spanning_tree;
    Alcotest.test_case "mesh degree cap" `Quick test_mesh_respects_degree_cap;
    Alcotest.test_case "mesh below optimum" `Quick
      test_mesh_solve_feasible_and_below_optimum;
    Alcotest.test_case "forest stripes" `Quick test_forest_builds_stripes;
    Alcotest.test_case "forest interior disjoint" `Quick
      test_forest_interior_disjointness;
    Alcotest.test_case "forest solve feasible" `Quick test_forest_solve_feasible;
  ]
