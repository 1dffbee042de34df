(* Sparsify unit tests: spec grammar round-trip, selection invariants
   (connectivity, latency-MST inclusion, determinism, bounds), sparse
   route tables, and overlay/solver integration of the pruning knob. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* --- spec grammar ------------------------------------------------------ *)

let test_spec_roundtrip () =
  let specs =
    [
      Sparsify.full;
      Sparsify.k_nearest 8;
      Sparsify.k_nearest ~tree_cap:4 8;
      Sparsify.random_mix ~random:4 ~nearest:4 ();
      Sparsify.random_mix ~tree_cap:2 ~random:3 ~nearest:0 ();
      Sparsify.cluster 32;
      Sparsify.cluster ~tree_cap:5 6;
      { Sparsify.full with Sparsify.tree_cap = Some 7 };
    ]
  in
  List.iter
    (fun spec ->
      match Sparsify.of_string (Sparsify.to_string spec) with
      | Ok spec' ->
        Alcotest.(check string)
          "round-trip"
          (Sparsify.to_string spec)
          (Sparsify.to_string spec');
        checkb "round-trip equal" true (Sparsify.equal spec spec')
      | Error msg -> Alcotest.failf "round-trip failed: %s" msg)
    specs;
  (* bare names parse as auto parameters *)
  List.iter
    (fun s ->
      match Sparsify.of_string s with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "%S rejected: %s" s msg)
    [ "full"; "k_nearest"; "random_mix"; "cluster"; "k_nearest@3"; "full@2" ];
  List.iter
    (fun s ->
      match Sparsify.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S accepted" s)
    [ ""; "bogus"; "k_nearest:0"; "cluster:1"; "random_mix:x+y"; "full@0" ]

let test_is_full () =
  checkb "full is full" true (Sparsify.is_full Sparsify.full);
  checkb "capped full is not" false
    (Sparsify.is_full { Sparsify.full with Sparsify.tree_cap = Some 3 });
  checkb "k_nearest is not" false (Sparsify.is_full (Sparsify.k_nearest 3))

let test_defaults_grow () =
  checki "default_k floor" 8 (Sparsify.default_k 8);
  checkb "default_k grows logarithmically" true
    (Sparsify.default_k 5000 <= 16 && Sparsify.default_k 5000 >= 15);
  checki "default_clusters floor" 2 (Sparsify.default_clusters 3);
  checkb "default_clusters ~ sqrt" true
    (abs (Sparsify.default_clusters 1000 - 32) <= 1)

(* --- selection invariants ---------------------------------------------- *)

(* deterministic synthetic latency: members on a line, latency = slot
   distance, so "k nearest" is unambiguous *)
let line_row k =
  let buf = Array.make k 0.0 in
  fun i ->
    for j = 0 to k - 1 do
      buf.(j) <- float_of_int (abs (j - i))
    done;
    buf

let connected k pairs =
  let uf = Union_find.create k in
  Array.iter (fun (a, b) -> ignore (Union_find.union uf a b)) pairs;
  Union_find.count uf = 1

let sorted_strict pairs =
  let ok = ref true in
  Array.iteri
    (fun i (a, b) ->
      if a >= b then ok := false;
      if i > 0 then begin
        let a', b' = pairs.(i - 1) in
        if not (a' < a || (a' = a && b' < b)) then ok := false
      end)
    pairs;
  !ok

let all_specs =
  [
    Sparsify.full;
    Sparsify.k_nearest 3;
    Sparsify.random_mix ~random:2 ~nearest:2 ();
    Sparsify.cluster 4;
    Sparsify.k_nearest ~tree_cap:2 5;
    { Sparsify.full with Sparsify.tree_cap = Some 3 };
  ]

let test_selection_invariants () =
  List.iter
    (fun spec ->
      List.iter
        (fun k ->
          let pairs = Sparsify.select spec ~k ~salt:7 ~row:(line_row k) in
          let name = Printf.sprintf "%s/k=%d" (Sparsify.to_string spec) k in
          checkb (name ^ " connected") true (connected k pairs);
          checkb (name ^ " sorted a<b") true (sorted_strict pairs);
          checkb (name ^ " within max_pairs") true
            (Array.length pairs <= Sparsify.max_pairs ~k spec);
          checkb (name ^ " at least spanning") true
            (Array.length pairs >= k - 1))
        [ 2; 5; 12; 40 ])
    all_specs

let test_selection_deterministic () =
  List.iter
    (fun spec ->
      let k = 20 in
      let p1 = Sparsify.select spec ~k ~salt:3 ~row:(line_row k) in
      let p2 = Sparsify.select spec ~k ~salt:3 ~row:(line_row k) in
      checkb
        (Sparsify.to_string spec ^ " deterministic")
        true (p1 = p2))
    all_specs;
  (* distinct salts must individualize the randomized strategies *)
  let spec = Sparsify.random_mix ~random:3 ~nearest:1 () in
  let k = 30 in
  let p1 = Sparsify.select spec ~k ~salt:1 ~row:(line_row k) in
  let p2 = Sparsify.select spec ~k ~salt:2 ~row:(line_row k) in
  checkb "salt changes the random draw" true (p1 <> p2)

let test_full_is_complete () =
  let k = 9 in
  let pairs = Sparsify.select Sparsify.full ~k ~salt:0 ~row:(line_row k) in
  checki "complete pair count" (k * (k - 1) / 2) (Array.length pairs)

let test_k_nearest_keeps_line () =
  (* on the line, the latency MST is exactly the chain i--i+1, and each
     member's nearest neighbours are adjacent slots: every chain edge
     must survive, plus nothing farther than n_k slots away unless it is
     a chain edge *)
  let k = 16 and n_k = 2 in
  let pairs =
    Sparsify.select (Sparsify.k_nearest n_k) ~k ~salt:0 ~row:(line_row k)
  in
  Array.iter
    (fun (a, b) ->
      checkb
        (Printf.sprintf "edge (%d,%d) is local" a b)
        true
        (b - a <= n_k))
    pairs;
  for i = 0 to k - 2 do
    checkb
      (Printf.sprintf "chain edge (%d,%d) kept" i (i + 1))
      true
      (Array.exists (fun p -> p = (i, i + 1)) pairs)
  done

let test_tree_cap_bounds () =
  let k = 25 in
  List.iter
    (fun cap ->
      let spec = Sparsify.k_nearest ~tree_cap:cap 8 in
      let pairs = Sparsify.select spec ~k ~salt:5 ~row:(line_row k) in
      checkb
        (Printf.sprintf "cap %d bounds edges" cap)
        true
        (Array.length pairs <= cap * (k - 1));
      checkb (Printf.sprintf "cap %d connected" cap) true (connected k pairs))
    [ 1; 2; 4 ]

(* --- sparse route tables ----------------------------------------------- *)

let star_graph n =
  (* hub 0, spokes 1..n-1; all member pairs route through the hub *)
  let g = Graph.create ~n in
  for v = 1 to n - 1 do
    ignore (Graph.add_edge g 0 v ~capacity:1.0)
  done;
  g

let test_compute_pairs_matches_dense () =
  let rng = Rng.create 11 in
  let topo = Waxman.generate rng { Waxman.default_params with Waxman.n = 40 } in
  let g = topo.Topology.graph in
  let members = [| 3; 8; 15; 22; 31; 37 |] in
  let k = Array.length members in
  let dense = Ip_routing.compute g ~members in
  let pairs = ref [] in
  for a = 0 to k - 1 do
    for b = a + 1 to k - 1 do
      if (a + b) mod 2 = 0 then pairs := (a, b) :: !pairs
    done
  done;
  let pairs = Array.of_list (List.rev !pairs) in
  let sparse = Ip_routing.compute_pairs g ~members ~pairs in
  checki "sparse stores requested pairs" (Array.length pairs)
    (Ip_routing.n_routes sparse);
  (* every route — stored or filled on demand — matches the dense table *)
  for a = 0 to k - 1 do
    for b = 0 to k - 1 do
      if a <> b then begin
        let rd = Ip_routing.route dense members.(a) members.(b) in
        let rs = Ip_routing.route sparse members.(a) members.(b) in
        checkb
          (Printf.sprintf "route %d->%d identical" a b)
          true
          (rd.Route.src = rs.Route.src
          && rd.Route.dst = rs.Route.dst
          && rd.Route.edges = rs.Route.edges)
      end
    done
  done;
  checki "on-demand fills cached" (k * (k - 1) / 2) (Ip_routing.n_routes sparse)

let test_compute_pairs_star () =
  let g = star_graph 6 in
  let members = [| 1; 2; 3; 4 |] in
  let t = Ip_routing.compute_pairs g ~members ~pairs:[| (0, 1); (2, 3) |] in
  checki "two stored routes" 2 (Ip_routing.n_routes t);
  checki "max_hops over stored routes" 2 (Ip_routing.max_hops t);
  let r = Ip_routing.route t 2 4 in
  checki "on-demand route has 2 hops" 2 (Route.hops r);
  checki "fill cached" 3 (Ip_routing.n_routes t)

(* --- overlay + solver integration -------------------------------------- *)

let make_instance () =
  let rng = Rng.create 21 in
  let topo = Waxman.generate rng { Waxman.default_params with Waxman.n = 60 } in
  let g = topo.Topology.graph in
  let session =
    Session.random (Rng.create 22) ~id:0 ~topology_size:60 ~size:14
      ~demand:100.0
  in
  (g, session)

let test_overlay_pruned_build () =
  let g, session = make_instance () in
  List.iter
    (fun mode ->
      let spec = Sparsify.k_nearest 3 in
      let o = Overlay.create ~sparsify:spec g mode session in
      let k = Session.size session in
      checkb "spec recorded" true (Sparsify.equal spec (Overlay.sparsify o));
      checkb "fewer candidate edges" true
        (Overlay.n_overlay_edges o < k * (k - 1) / 2);
      checkb "pruned overlay connected" true
        (connected k (Overlay.overlay_pairs o));
      (* MSTs over the pruned candidate space still span the session *)
      let tree = Overlay.min_spanning_tree o (Array.make (Graph.n_edges g) 1.0) in
      checki "spanning tree size" (k - 1) (Array.length tree.Otree.pairs))
    [ Overlay.Ip; Overlay.Arbitrary ]

let test_overlay_full_is_default () =
  let g, session = make_instance () in
  let o_default = Overlay.create g Overlay.Ip session in
  let o_full = Overlay.create ~sparsify:Sparsify.full g Overlay.Ip session in
  checkb "default records full" true
    (Sparsify.is_full (Overlay.sparsify o_default));
  checki "same candidate set"
    (Overlay.n_overlay_edges o_default)
    (Overlay.n_overlay_edges o_full);
  checkb "same pairs" true
    (Overlay.overlay_pairs o_default = Overlay.overlay_pairs o_full)

let suite =
  [
    Alcotest.test_case "spec grammar round-trips" `Quick test_spec_roundtrip;
    Alcotest.test_case "is_full" `Quick test_is_full;
    Alcotest.test_case "auto parameters" `Quick test_defaults_grow;
    Alcotest.test_case "selection invariants" `Quick test_selection_invariants;
    Alcotest.test_case "selection deterministic" `Quick
      test_selection_deterministic;
    Alcotest.test_case "full selection is complete" `Quick test_full_is_complete;
    Alcotest.test_case "k_nearest keeps the chain" `Quick
      test_k_nearest_keeps_line;
    Alcotest.test_case "tree cap bounds the edge count" `Quick
      test_tree_cap_bounds;
    Alcotest.test_case "sparse routes match dense" `Quick
      test_compute_pairs_matches_dense;
    Alcotest.test_case "sparse table on-demand fill" `Quick
      test_compute_pairs_star;
    Alcotest.test_case "pruned overlay builds and spans" `Quick
      test_overlay_pruned_build;
    Alcotest.test_case "full spec equals default build" `Quick
      test_overlay_full_is_default;
  ]
