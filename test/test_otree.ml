(* Otree against a reference oracle: [Reference] is the straightforward
   construction (polymorphic sort of the normalized pairs, Hashtbl
   multiplicity counts), kept here so the production [Otree.build] can
   be checked field by field on random trees and degenerate pair lists.
   [Otree.build_sorted], the overlay's linear-time constructor, is
   checked against [Otree.build] on the trees the flat IP path builds,
   and on its own contract.  Allocation gates pin [Solution.add] of a
   known tree (tree identity by value costs no allocation) and the
   construction (a memo miss allocates the tree and the memo's own
   entry, nothing else). *)

let checkb = Alcotest.(check bool)

module Reference = struct
  let build ~pairs ~routes =
    let order = Array.init (Array.length pairs) (fun i -> i) in
    let normalized =
      Array.map (fun (a, b) -> if a < b then (a, b) else (b, a)) pairs
    in
    Array.sort (fun i j -> compare normalized.(i) normalized.(j)) order;
    let pairs = Array.map (fun i -> normalized.(i)) order in
    let routes = Array.map (fun i -> routes.(i)) order in
    let counts = Hashtbl.create 32 in
    Array.iter
      (fun route ->
        Route.iter_edges route (fun id ->
            let c = try Hashtbl.find counts id with Not_found -> 0 in
            Hashtbl.replace counts id (c + 1)))
      routes;
    let usage =
      Hashtbl.fold (fun id c acc -> (id, c) :: acc) counts []
      |> List.sort compare |> Array.of_list
    in
    (pairs, routes, usage)
end

(* routes are built as records so degenerate shapes (repeated edges,
   edge-less routes) reach [Otree.build] unvalidated *)
let random_route rng ~src ~dst ~pool =
  let hops = Rng.int rng 7 in
  { Route.src; dst; edges = Array.init hops (fun _ -> Rng.int rng pool) }

(* a random spanning tree over [k] slots, listed in shuffled order with
   roughly half of the pairs reversed *)
let random_tree_pairs rng k =
  let pairs =
    Array.init (k - 1) (fun i ->
        let v = i + 1 in
        let u = Rng.int rng v in
        if Rng.int rng 2 = 0 then (u, v) else (v, u))
  in
  for i = Array.length pairs - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let tmp = pairs.(i) in
    pairs.(i) <- pairs.(j);
    pairs.(j) <- tmp
  done;
  pairs

let check_against_oracle ~what ~pairs ~routes =
  let tree = Otree.build ~session_id:3 ~pairs ~routes in
  let ref_pairs, ref_routes, ref_usage = Reference.build ~pairs ~routes in
  checkb (what ^ ": pairs") true (tree.Otree.pairs = ref_pairs);
  checkb (what ^ ": routes (same values, same order)") true
    (Array.length tree.Otree.routes = Array.length ref_routes
    && Array.for_all2 ( == ) tree.Otree.routes ref_routes);
  checkb (what ^ ": usage") true (tree.Otree.usage = ref_usage);
  tree

let test_random_trees () =
  let rng = Rng.create 2024 in
  for case = 1 to 300 do
    let k = 1 + Rng.int rng 16 in
    let pool = [| 3; 20; 200; 100_000 |].(Rng.int rng 4) in
    let pairs = random_tree_pairs rng k in
    let routes =
      Array.map (fun (a, b) -> random_route rng ~src:a ~dst:b ~pool) pairs
    in
    ignore
      (check_against_oracle
         ~what:(Printf.sprintf "case %d (k=%d, pool=%d)" case k pool)
         ~pairs ~routes)
  done

(* pair lists that are not trees: duplicated and reversed duplicates
   with distinct routes put ties into the sort, and wide slots and
   edge ids reach the usage table unchanged *)
let test_degenerate_pair_lists () =
  let rng = Rng.create 77 in
  let r edges = { Route.src = 0; dst = 1; edges } in
  let fixed =
    [
      ("empty", [||], [||]);
      ("single", [| (1, 0) |], [| r [| 5; 5; 12 |] |]);
      ( "duplicate pairs",
        [| (2, 1); (1, 2); (0, 3); (1, 2); (3, 0) |],
        [| r [| 1 |]; r [| 2; 3 |]; r [||]; r [| 4 |]; r [| 1; 23 |] |] );
      ( "wide slots and edge ids",
        [| (7, 0); (max_int, 1_000_000_000); (10, 9) |],
        [| r [| 0 |]; r [| 123456789; max_int |]; r [| 9; 10; 11 |] |] );
    ]
  in
  List.iter
    (fun (what, pairs, routes) ->
      ignore (check_against_oracle ~what ~pairs ~routes))
    fixed;
  for case = 1 to 200 do
    let n = Rng.int rng 12 in
    let slots = 1 + Rng.int rng 4 in
    let pairs =
      Array.init n (fun _ -> (Rng.int rng slots, Rng.int rng slots))
    in
    let routes =
      Array.map (fun (a, b) -> random_route rng ~src:a ~dst:b ~pool:6) pairs
    in
    ignore
      (check_against_oracle
         ~what:(Printf.sprintf "multiset case %d" case)
         ~pairs ~routes)
  done

(* one overlay shape realized by two different route sets: same pairs
   and hash, two different trees, each equal to the oracle *)
let test_one_shape_two_realizations () =
  let rng = Rng.create 5 in
  for case = 1 to 50 do
    let k = 2 + Rng.int rng 10 in
    let pairs = random_tree_pairs rng k in
    let routes_a =
      Array.map (fun (a, b) -> random_route rng ~src:a ~dst:b ~pool:30) pairs
    in
    let routes_b = Array.copy routes_a in
    let j = Rng.int rng (Array.length pairs) in
    let src, dst = pairs.(j) in
    routes_b.(j) <-
      { Route.src; dst; edges = Array.append routes_a.(j).Route.edges [| 31 |] };
    let what = Printf.sprintf "case %d" case in
    let a = check_against_oracle ~what:(what ^ " a") ~pairs ~routes:routes_a in
    let b = check_against_oracle ~what:(what ^ " b") ~pairs ~routes:routes_b in
    checkb (what ^ ": same shape") true (a.Otree.pairs = b.Otree.pairs);
    Alcotest.(check int) (what ^ ": same hash") (Otree.hash a) (Otree.hash b);
    checkb (what ^ ": different trees") false (Otree.equal a b)
  done

(* --- the IP path's construction ------------------------------------------- *)

let same_tree ~what (a : Otree.t) (b : Otree.t) =
  checkb (what ^ ": pairs") true (a.Otree.pairs = b.Otree.pairs);
  checkb (what ^ ": routes (physically)") true
    (Array.length a.Otree.routes = Array.length b.Otree.routes
    && Array.for_all2 ( == ) a.Otree.routes b.Otree.routes);
  checkb (what ^ ": usage") true (a.Otree.usage = b.Otree.usage);
  checkb (what ^ ": equal") true (Otree.equal a b)

(* The reference tree, from public pieces only: the overlay graph over
   the candidate pairs (edge id = pair index, as the overlay builds it),
   each pair's fixed route, [Mst.prim] on the [Route.weight]s, and
   [Otree.build] of its picks. *)
let reference_tree o ~length =
  let pairs = Overlay.overlay_pairs o in
  let og = Graph.create ~n:(Session.size (Overlay.session o)) in
  Array.iter (fun (a, b) -> ignore (Graph.add_edge og a b ~capacity:1.0)) pairs;
  let routes =
    Array.map
      (fun p ->
        (Overlay.tree_of_pairs o ~pairs:[| p |] ~length).Otree.routes.(0))
      pairs
  in
  let mst = Mst.prim og ~length:(fun oe -> Route.weight routes.(oe) ~length) in
  Otree.build ~session_id:(Overlay.session o).Session.id
    ~pairs:(Array.map (fun id -> pairs.(id)) mst.Mst.edges)
    ~routes:(Array.map (fun id -> routes.(id)) mst.Mst.edges)

(* Random overlays of 3-100 members, full or k_nearest, under random
   lengths, with the engine off and on (a [with_session] twin).  Both
   must return the reference tree, down to the physical route values
   (every tree shares the overlay's fixed routes). *)
let test_flat_ip_builds_match_build () =
  let rng = Rng.create 41 in
  let specs =
    [| Sparsify.full; Result.get_ok (Sparsify.of_string "k_nearest:10") |]
  in
  for case = 1 to 12 do
    let k = 3 + Rng.int rng 98 in
    let nodes = k + 20 + Rng.int rng 80 in
    let topo =
      Waxman.generate (Rng.create (1000 + case))
        { Waxman.default_params with Waxman.n = nodes }
    in
    let g = topo.Topology.graph in
    let session =
      Session.random rng ~id:case ~topology_size:nodes ~size:k ~demand:1.0
    in
    let sparsify = specs.(case mod 2) in
    let off = Overlay.create ~sparsify g Overlay.Ip session in
    let on = Overlay.with_session off session in
    for draw = 1 to 4 do
      let lens =
        Array.init (Graph.n_edges g) (fun _ -> 0.1 +. Rng.float rng 4.0)
      in
      let length e = lens.(e) in
      let what =
        Printf.sprintf "case %d (%d members, %s) draw %d" case k
          (Sparsify.to_string sparsify) draw
      in
      let reference = reference_tree off ~length in
      same_tree ~what:(what ^ ", engine off") reference
        (Overlay.min_spanning_tree off ~length);
      Overlay.begin_incremental on lens;
      same_tree ~what:(what ^ ", engine on") reference
        (Overlay.min_spanning_tree on ~length)
    done
  done

(* [build_sorted] on canonical pairs equals [build]; a scratch survives
   a refused call clean *)
let test_build_sorted_contract () =
  let rng = Rng.create 29 in
  let s = Otree.scratch ~n_edges:60 in
  let canonical pairs =
    let p = Array.map (fun (a, b) -> if a < b then (a, b) else (b, a)) pairs in
    Array.sort compare p;
    p
  in
  for case = 1 to 200 do
    let k = 1 + Rng.int rng 20 in
    let pairs = canonical (random_tree_pairs rng k) in
    let routes =
      Array.map (fun (a, b) -> random_route rng ~src:a ~dst:b ~pool:60) pairs
    in
    let what = Printf.sprintf "case %d (k=%d)" case k in
    same_tree ~what
      (Otree.build ~session_id:3 ~pairs ~routes)
      (Otree.build_sorted s ~session_id:3 ~pairs ~routes)
  done;
  let r edges = { Route.src = 0; dst = 1; edges } in
  List.iter
    (fun (what, pairs, routes) ->
      match Otree.build_sorted s ~session_id:0 ~pairs ~routes with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s accepted" what)
    [
      ("reversed pair", [| (1, 0) |], [| r [| 1 |] |]);
      ("self pair", [| (2, 2) |], [| r [| 1 |] |]);
      ("descending pairs", [| (0, 2); (0, 1) |], [| r [| 1 |]; r [| 2 |] |]);
      ("repeated pair", [| (0, 1); (0, 1) |], [| r [| 1 |]; r [| 2 |] |]);
      ("length mismatch", [| (0, 1) |], [||]);
      ("edge id past the scratch", [| (0, 1); (1, 2) |],
       [| r [| 4; 5; 4 |]; r [| 60 |] |]);
      ("negative edge id", [| (0, 1) |], [| r [| 3; -1 |] |]);
    ];
  (* the refused calls left no count behind *)
  let pairs = [| (0, 1); (1, 2) |] and routes = [| r [| 4; 5 |]; r [| 5 |] |] in
  checkb "scratch clean after refusals" true
    ((Otree.build_sorted s ~session_id:0 ~pairs ~routes).Otree.usage
    = [| (4, 1); (5, 2) |])

(* --- allocation gates ---------------------------------------------------- *)

let random_tree rng ~k ~session_id =
  let pairs = random_tree_pairs rng k in
  let routes =
    Array.map (fun (a, b) -> random_route rng ~src:a ~dst:b ~pool:1000) pairs
  in
  Otree.build ~session_id ~pairs ~routes

let sizes = [ 3; 30; 300 ]

(* Adding a tree that is already in the solution allocates nothing, at
   every tree size: the index lookup hashes and compares in place, and
   the rate is written into a float array. *)
let test_solution_add_allocates_nothing () =
  let rng = Rng.create 23 in
  List.iter
    (fun k ->
      let session =
        Session.create ~id:0 ~members:(Array.init k (fun i -> i)) ~demand:1.0
      in
      let a = random_tree rng ~k ~session_id:0 in
      let b = random_tree rng ~k ~session_id:0 in
      let sol = Solution.create [| session |] in
      Solution.add sol a 1.0;
      Solution.add sol b 1.0;
      let words =
        Obs.Alloc.measure ~warmup:10 ~iters:1000 (fun () ->
            Solution.add sol a 1.0;
            Solution.add sol b 1.0)
      in
      Alcotest.(check int) "both trees recorded" 2 (Solution.n_trees sol 0);
      if words <> 0.0 then
        Alcotest.failf
          "Solution.add of a known %d-member tree allocates %.1f words per \
           pair of adds"
          k words)
    sizes

(* A memo miss on the IP path allocates the returned tree (record,
   pairs, routes, usage table and rows) and the memo's new entry (its
   key, a copy of Prim's output, and one table binding), nothing else.
   A run of misses on a fresh overlay is compared with the same run
   repeated, when every tree is a memo hit: both bind each draw's
   lengths, refresh the same weights and fill the same memo slot, so
   the difference is the builds and the entries.  Cross-check mode
   rebuilds every new tree a second time on purpose, so it is off for
   the measurement. *)
let test_memo_miss_allocates_the_tree () =
  let was_cross_check = Overlay.cross_check_enabled () in
  Overlay.set_cross_check false;
  Fun.protect ~finally:(fun () -> Overlay.set_cross_check was_cross_check)
  @@ fun () ->
  let topo =
    Waxman.generate (Rng.create 3) { Waxman.default_params with Waxman.n = 60 }
  in
  let g = topo.Topology.graph in
  let rng = Rng.create 13 in
  List.iter
    (fun k ->
      let session =
        Session.random rng ~id:0 ~topology_size:60 ~size:k ~demand:1.0
      in
      let length _ = 1.0 in
      (* up to 24 lengths arrays whose trees are pairwise distinct *)
      let probe = Overlay.create g Overlay.Ip session in
      let seen = Otree.Tbl.create 32 in
      let picked =
        List.filter_map
          (fun _ ->
            let lens =
              Array.init (Graph.n_edges g) (fun _ -> 0.1 +. Rng.float rng 4.0)
            in
            Overlay.begin_incremental probe lens;
            let tree = Overlay.min_spanning_tree probe ~length in
            if Otree.Tbl.length seen >= 24 || Otree.Tbl.mem seen tree
            then None
            else begin
              Otree.Tbl.add seen tree ();
              Some (lens, tree)
            end)
          (List.init 60 Fun.id)
      in
      let draws = Array.of_list (List.map fst picked) in
      checkb "several distinct trees" true (Array.length draws >= 2);
      let expected =
        List.fold_left
          (fun acc (_, (t : Otree.t)) ->
            let n = Array.length t.Otree.pairs
            and d = Array.length t.Otree.usage in
            let tree = 5 + (n + 1) + (n + 1) + (d + 1) + (3 * d)
            and entry = (n + 1) + 4 in
            acc + tree + entry)
          0 picked
      in
      let o = Overlay.create g Overlay.Ip session in
      let run () =
        let w0 = Obs.Alloc.minor_words () in
        Array.iter
          (fun lens ->
            Overlay.begin_incremental o lens;
            ignore (Sys.opaque_identity (Overlay.min_spanning_tree o ~length)))
          draws;
        Obs.Alloc.minor_words () -. w0
      in
      let misses = run () in
      let hits = run () in
      let builds = misses -. hits in
      if builds <> float_of_int expected then
        Alcotest.failf
          "%d-member overlay: %d memo misses allocate %.0f words more than \
           hits; the trees and memo entries take %d"
          k (Array.length draws) builds expected)
    [ 3; 7; 30 ]

(* With the engine on, the weight refresh of every overlay edge (a call
   after a rescale, the same refresh as the first call of a solve)
   allocates nothing, and neither does refreshing the dirty ones after
   a generic update: on a 30-member full overlay (435 overlay edges), a
   memo-hit MST call on each of these paths allocates 0 words.  The
   closure fold of the engine-off state and of cross-check mode
   allocates by design, so cross-check mode is off for the
   measurement. *)
let test_refresh_allocates_nothing () =
  let was_cross_check = Overlay.cross_check_enabled () in
  Overlay.set_cross_check false;
  Fun.protect ~finally:(fun () -> Overlay.set_cross_check was_cross_check)
  @@ fun () ->
  let rng = Rng.create 3 in
  let topo =
    Waxman.generate rng { Waxman.default_params with Waxman.n = 100 }
  in
  let g = topo.Topology.graph in
  let session =
    Session.random rng ~id:0 ~topology_size:100 ~size:30 ~demand:1.0
  in
  let o = Overlay.create g Overlay.Ip session in
  Alcotest.(check int) "overlay edges" 435 (Overlay.n_overlay_edges o);
  let lens =
    Array.init (Graph.n_edges g) (fun _ -> 0.1 +. Rng.float rng 4.0)
  in
  let length id = lens.(id) in
  let covered = Overlay.covered_edges o in
  let measure path before =
    ignore (Overlay.min_spanning_tree o ~length);
    let words =
      Obs.Alloc.measure ~warmup:3 ~iters:200 (fun () ->
          before ();
          ignore (Sys.opaque_identity (Overlay.min_spanning_tree o ~length)))
    in
    if words <> 0.0 then
      Alcotest.failf "a memo-hit MST call %s allocates %.1f words" path words
  in
  Overlay.begin_incremental o lens;
  Fun.protect ~finally:(fun () -> Overlay.end_incremental o) @@ fun () ->
  measure "after notify_rescale" (fun () -> Overlay.notify_rescale o);
  measure "after notify_length_update" (fun () ->
      Overlay.notify_length_update o covered.(0))

let suite =
  [
    Alcotest.test_case "build matches the oracle on random trees" `Quick
      test_random_trees;
    Alcotest.test_case "build matches the oracle on degenerate pairs" `Quick
      test_degenerate_pair_lists;
    Alcotest.test_case "one shape, two realizations" `Quick
      test_one_shape_two_realizations;
    Alcotest.test_case "Solution.add of a known tree allocates nothing"
      `Quick test_solution_add_allocates_nothing;
    Alcotest.test_case "flat IP builds equal Otree.build of Prim's output"
      `Quick test_flat_ip_builds_match_build;
    Alcotest.test_case "build_sorted: equal to build, refuses non-canonical"
      `Quick test_build_sorted_contract;
    Alcotest.test_case "a memo miss allocates the tree and its memo entry"
      `Quick test_memo_miss_allocates_the_tree;
    Alcotest.test_case "the weight refresh allocates nothing" `Quick
      test_refresh_allocates_nothing;
  ]
