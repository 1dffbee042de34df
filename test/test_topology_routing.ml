(* Tests for topology generators, Route, Ip_routing, Dynamic_routing. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

(* --- Generators -------------------------------------------------------- *)

let test_waxman_shape () =
  let rng = Rng.create 1 in
  let p = { Waxman.default_params with n = 60 } in
  let t = Waxman.generate rng p in
  checki "node count" 60 (Topology.n_nodes t);
  (* incremental attachment with m=2: node 1 adds 1 edge, others 2 *)
  checki "edge count" (1 + (2 * 58)) (Topology.n_links t);
  checkb "connected" true (Topology.check t = None)

let test_waxman_deterministic () =
  let gen () =
    let rng = Rng.create 77 in
    Waxman.generate rng { Waxman.default_params with n = 30 }
  in
  let a = gen () and b = gen () in
  checki "same edges" (Topology.n_links a) (Topology.n_links b);
  let ea = Graph.edges a.Topology.graph and eb = Graph.edges b.Topology.graph in
  Array.iteri
    (fun i e ->
      checki "same endpoints u" e.Graph.u eb.(i).Graph.u;
      checki "same endpoints v" e.Graph.v eb.(i).Graph.v)
    ea

let test_waxman_validation () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "n too small" (Invalid_argument "Waxman.generate: n < 2")
    (fun () -> ignore (Waxman.generate rng { Waxman.default_params with n = 1 }))

let test_barabasi_shape () =
  let rng = Rng.create 2 in
  let t = Barabasi.generate rng { Barabasi.default_params with n = 50; m = 2 } in
  checki "nodes" 50 (Topology.n_nodes t);
  checkb "connected" true (Topology.check t = None);
  (* seed clique on 3 nodes (3 edges) + 2 per additional node *)
  checki "edges" (3 + (2 * 47)) (Topology.n_links t)

let test_barabasi_hubs () =
  (* preferential attachment should produce a heavier max degree than
     the minimum *)
  let rng = Rng.create 3 in
  let t = Barabasi.generate rng { Barabasi.default_params with n = 200; m = 2 } in
  let g = t.Topology.graph in
  let maxdeg = ref 0 in
  for v = 0 to 199 do
    maxdeg := max !maxdeg (Graph.degree g v)
  done;
  checkb "has a hub" true (!maxdeg >= 10)

let test_two_level_shape () =
  let rng = Rng.create 4 in
  let p = Two_level.small_params ~n_as:4 ~routers_per_as:20 in
  let t = Two_level.generate rng p in
  checki "nodes" 80 (Topology.n_nodes t);
  checkb "connected" true (Topology.check t = None);
  (* AS membership is recorded *)
  checki "as of router 0" 0 t.Topology.nodes.(0).Topology.as_id;
  checki "as of router 79" 3 t.Topology.nodes.(79).Topology.as_id;
  (* border routers exist *)
  checkb "has borders" true
    (Array.exists (fun n -> n.Topology.is_border) t.Topology.nodes)

let test_capacity_ops () =
  let rng = Rng.create 5 in
  let t = Waxman.generate rng { Waxman.default_params with n = 20 } in
  Topology.set_uniform_capacity t 7.0;
  Graph.iter_edges t.Topology.graph (fun e -> checkf "uniform" 7.0 e.Graph.capacity);
  Topology.scale_capacities t ~factor:2.0;
  Graph.iter_edges t.Topology.graph (fun e -> checkf "scaled" 14.0 e.Graph.capacity);
  Topology.randomize_capacities t (Rng.create 6) ~low:1.0 ~high:2.0;
  Graph.iter_edges t.Topology.graph (fun e ->
      checkb "in range" true (e.Graph.capacity >= 1.0 && e.Graph.capacity <= 2.0))

(* --- Route -------------------------------------------------------------- *)

let path_graph () =
  Graph.of_edges ~n:4 [ (0, 1, 5.0); (1, 2, 3.0); (2, 3, 4.0) ]

let test_route_basics () =
  let g = path_graph () in
  let r = Route.make ~src:0 ~dst:3 [| 0; 1; 2 |] in
  checki "hops" 3 (Route.hops r);
  checkf "weight" 3.0 (Route.weight r ~length:Dijkstra.hop_length);
  checkb "valid" true (Route.is_valid g r);
  checkb "mem" true (Route.mem r 1);
  checkb "not mem" false (Route.mem r 9)

let test_route_reverse () =
  let g = path_graph () in
  let r = Route.make ~src:0 ~dst:3 [| 0; 1; 2 |] in
  let rev = Route.reverse r in
  checki "src" 3 rev.Route.src;
  checki "dst" 0 rev.Route.dst;
  checkb "still valid" true (Route.is_valid g rev)

let test_route_invalid_detected () =
  let g = path_graph () in
  let bogus = Route.make ~src:0 ~dst:3 [| 0; 2; 1 |] in
  checkb "broken path rejected" false (Route.is_valid g bogus)

let test_route_empty () =
  let r = Route.make ~src:2 ~dst:2 [||] in
  checki "zero hops" 0 (Route.hops r);
  checkf "zero weight" 0.0 (Route.weight r ~length:Dijkstra.hop_length)

(* --- Ip_routing ---------------------------------------------------------- *)

let grid_graph () =
  (* 0-1-2 / 3-4-5 grid *)
  Graph.of_edges ~n:6
    [ (0, 1, 1.0); (1, 2, 1.0); (3, 4, 1.0); (4, 5, 1.0);
      (0, 3, 1.0); (1, 4, 1.0); (2, 5, 1.0) ]

let test_ip_routes_valid_and_shortest () =
  let g = grid_graph () in
  let members = [| 0; 2; 5 |] in
  let table = Ip_routing.compute g ~members in
  Array.iter
    (fun u ->
      Array.iter
        (fun v ->
          if u <> v then begin
            let r = Ip_routing.route table u v in
            checkb "valid" true (Route.is_valid g r);
            let d = Traverse.bfs g ~source:u in
            checki "shortest hops" d.(v) (Route.hops r)
          end)
        members)
    members

let test_ip_routes_symmetric () =
  let g = grid_graph () in
  let table = Ip_routing.compute g ~members:[| 0; 5 |] in
  let fwd = Ip_routing.route table 0 5 in
  let bwd = Ip_routing.route table 5 0 in
  Alcotest.(check (array int)) "reverse edges"
    (Route.reverse fwd).Route.edges bwd.Route.edges

let test_ip_max_hops_and_coverage () =
  let g = grid_graph () in
  let table = Ip_routing.compute g ~members:[| 0; 2; 5 |] in
  checki "max hops" 3 (Ip_routing.max_hops table);
  let covered = Ip_routing.covered_edges table in
  checkb "nonempty" true (Array.length covered > 0);
  checkb "sorted" true
    (Array.for_all (fun i -> i >= 0) covered
    &&
    let ok = ref true in
    for i = 1 to Array.length covered - 1 do
      if covered.(i) <= covered.(i - 1) then ok := false
    done;
    !ok)

let test_ip_non_member_raises () =
  let g = grid_graph () in
  let table = Ip_routing.compute g ~members:[| 0; 5 |] in
  Alcotest.check_raises "non-member"
    (Invalid_argument "Ip_routing.route: vertex 4 is not a session member")
    (fun () -> ignore (Ip_routing.route table 0 4))

let test_ip_disconnected_fails () =
  let g = Graph.of_edges ~n:4 [ (0, 1, 1.0); (2, 3, 1.0) ] in
  Alcotest.check_raises "disconnected"
    (Failure "Ip_routing.compute: member pair disconnected") (fun () ->
      ignore (Ip_routing.compute g ~members:[| 0; 3 |]))

(* --- Dynamic_routing ------------------------------------------------------ *)

let test_dynamic_responds_to_lengths () =
  (* two routes from 0 to 2: direct edge vs detour; inflate the direct
     edge and the snapshot must switch *)
  let g = Graph.of_edges ~n:3 [ (0, 2, 1.0); (0, 1, 1.0); (1, 2, 1.0) ] in
  let cheap_direct = Dynamic_routing.routes g ~members:[| 0; 2 |] ~length:Dijkstra.hop_length in
  checki "direct route" 1 (Route.hops (Dynamic_routing.route cheap_direct 0 2));
  let lens = [| 10.0; 1.0; 1.0 |] in
  let snap = Dynamic_routing.routes g ~members:[| 0; 2 |] ~length:(fun i -> lens.(i)) in
  checki "detour" 2 (Route.hops (Dynamic_routing.route snap 0 2));
  checkf "distance" 2.0 (Dynamic_routing.distance snap 0 2)

let test_dynamic_routes_valid () =
  let rng = Rng.create 9 in
  let t = Waxman.generate rng { Waxman.default_params with n = 40 } in
  let g = t.Topology.graph in
  let members = Rng.sample_without_replacement rng ~n:40 ~k:6 in
  let lens = Array.init (Graph.n_edges g) (fun i -> 0.5 +. float_of_int (i mod 7)) in
  let snap = Dynamic_routing.routes g ~members ~length:(fun i -> lens.(i)) in
  Array.iter
    (fun u ->
      Array.iter
        (fun v ->
          if u <> v then
            checkb "valid" true (Route.is_valid g (Dynamic_routing.route snap u v)))
        members)
    members

let suite =
  [
    Alcotest.test_case "waxman shape" `Quick test_waxman_shape;
    Alcotest.test_case "waxman deterministic" `Quick test_waxman_deterministic;
    Alcotest.test_case "waxman validation" `Quick test_waxman_validation;
    Alcotest.test_case "barabasi shape" `Quick test_barabasi_shape;
    Alcotest.test_case "barabasi hubs" `Quick test_barabasi_hubs;
    Alcotest.test_case "two-level shape" `Quick test_two_level_shape;
    Alcotest.test_case "capacity ops" `Quick test_capacity_ops;
    Alcotest.test_case "route basics" `Quick test_route_basics;
    Alcotest.test_case "route reverse" `Quick test_route_reverse;
    Alcotest.test_case "route invalid detected" `Quick test_route_invalid_detected;
    Alcotest.test_case "route empty" `Quick test_route_empty;
    Alcotest.test_case "ip routes valid+shortest" `Quick test_ip_routes_valid_and_shortest;
    Alcotest.test_case "ip routes symmetric" `Quick test_ip_routes_symmetric;
    Alcotest.test_case "ip max hops / coverage" `Quick test_ip_max_hops_and_coverage;
    Alcotest.test_case "ip non-member raises" `Quick test_ip_non_member_raises;
    Alcotest.test_case "ip disconnected fails" `Quick test_ip_disconnected_fails;
    Alcotest.test_case "dynamic responds to lengths" `Quick test_dynamic_responds_to_lengths;
    Alcotest.test_case "dynamic routes valid" `Quick test_dynamic_routes_valid;
  ]
