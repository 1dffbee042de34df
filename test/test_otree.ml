(* Otree against a reference oracle: [Reference] is the straightforward
   construction (polymorphic sort of the normalized pairs, Hashtbl
   multiplicity counts, Printf key), kept here so the production
   [Otree.build] / [Otree.key] can be checked field by field and byte
   by byte on random trees, degenerate pair lists, and the record
   copies callers make.  Allocation gates pin the key cache: a read
   key is never rebuilt, so [Solution.add] of a known tree costs the
   same for every tree size. *)

let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

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

  let key ~pairs ~routes =
    let buf = Buffer.create 64 in
    Array.iter
      (fun (a, b) -> Buffer.add_string buf (Printf.sprintf "%d,%d;" a b))
      pairs;
    Buffer.add_char buf '|';
    Array.iter
      (fun r ->
        Route.iter_edges r (fun id ->
            Buffer.add_string buf (string_of_int id));
        Buffer.add_char buf '/')
      routes;
    Buffer.contents buf
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
  checks (what ^ ": key")
    (Reference.key ~pairs:ref_pairs ~routes:ref_routes)
    (Otree.key tree);
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
   edge ids exercise the digit widths of the key *)
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
  (* slots and edge ids are never negative; the key refuses them *)
  List.iter
    (fun (what, pairs, routes) ->
      let tree = Otree.build ~session_id:0 ~pairs ~routes in
      Alcotest.check_raises what
        (Invalid_argument "Otree: negative slot or edge id") (fun () ->
          ignore (Otree.key tree)))
    [
      ("negative slot", [| (-3, 7) |], [| r [| 0 |] |]);
      ("negative edge id", [| (0, 1) |], [| r [| 4; -2 |] |]);
    ];
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

(* one overlay shape realized by two different route sets: same shape
   key, different keys, each equal to the oracle *)
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
    checks (what ^ ": same shape") (Otree.shape_key a) (Otree.shape_key b);
    checkb (what ^ ": different keys") false (Otree.key a = Otree.key b)
  done

(* the key is stable across repeated reads and survives the record
   copies that change fields outside it, whether the copy is taken
   before or after the original's key was first read *)
let test_key_stable_under_copies () =
  let rng = Rng.create 11 in
  let pairs = random_tree_pairs rng 9 in
  let routes =
    Array.map (fun (a, b) -> random_route rng ~src:a ~dst:b ~pool:40) pairs
  in
  let expected =
    let ref_pairs, ref_routes, _ = Reference.build ~pairs ~routes in
    Reference.key ~pairs:ref_pairs ~routes:ref_routes
  in
  let tree = Otree.build ~session_id:0 ~pairs ~routes in
  let early_sid = { tree with Otree.session_id = 1 } in
  let early_usage =
    { tree with Otree.usage = Array.map (fun (id, c) -> (id, c + 1)) tree.Otree.usage }
  in
  checks "first read" expected (Otree.key tree);
  checks "second read" expected (Otree.key tree);
  checks "copy with session_id, taken before the first read" expected
    (Otree.key early_sid);
  checks "copy with usage, taken before the first read" expected
    (Otree.key early_usage);
  let late_sid = { tree with Otree.session_id = 2 } in
  let late_usage = { tree with Otree.usage = [||] } in
  checks "copy with session_id, taken after the first read" expected
    (Otree.key late_sid);
  checks "copy with usage, taken after the first read" expected
    (Otree.key late_usage);
  checks "original unchanged by the copies" expected (Otree.key tree)

(* --- allocation gates ---------------------------------------------------- *)

let random_tree rng ~k ~session_id =
  let pairs = random_tree_pairs rng k in
  let routes =
    Array.map (fun (a, b) -> random_route rng ~src:a ~dst:b ~pool:1000) pairs
  in
  Otree.build ~session_id ~pairs ~routes

let sizes = [ 3; 30; 300 ]

(* once read, a key is returned from the cache: no string is rebuilt *)
let test_cached_key_allocates_nothing () =
  let rng = Rng.create 19 in
  List.iter
    (fun k ->
      let tree = random_tree rng ~k ~session_id:0 in
      ignore (Otree.key tree);
      let words =
        Obs.Alloc.measure ~warmup:10 ~iters:1000 (fun () ->
            ignore (Sys.opaque_identity (Otree.key tree)))
      in
      if words <> 0.0 then
        Alcotest.failf "cached key of a %d-member tree allocates %.2f words"
          k words)
    sizes

(* Adding a tree that is already in the solution, but is not the
   session's last-added tree, costs the table lookup only: the words
   allocated per add are a small constant, the same for every tree
   size. *)
let test_solution_add_constant_alloc () =
  let rng = Rng.create 23 in
  let per_add =
    List.map
      (fun k ->
        let session =
          Session.create ~id:0 ~members:(Array.init k (fun i -> i)) ~demand:1.0
        in
        let a = random_tree rng ~k ~session_id:0 in
        let b = random_tree rng ~k ~session_id:0 in
        let sol = Solution.create [| session |] in
        Solution.add sol a 1.0;
        Solution.add sol b 1.0;
        (* alternating adds defeat the last-added shortcut every time *)
        let words =
          Obs.Alloc.measure ~warmup:10 ~iters:1000 (fun () ->
              Solution.add sol a 1.0;
              Solution.add sol b 1.0)
          /. 2.0
        in
        Alcotest.(check int) "both trees recorded" 2 (Solution.n_trees sol 0);
        if words > 16.0 then
          Alcotest.failf "Solution.add of a known %d-member tree allocates \
                          %.1f words"
            k words;
        words)
      sizes
  in
  if List.exists (fun w -> w <> List.hd per_add) per_add then
    Alcotest.failf "Solution.add allocation depends on tree size: %s"
      (String.concat ", " (List.map (Printf.sprintf "%.1f") per_add))

let suite =
  [
    Alcotest.test_case "build and key match the oracle on random trees"
      `Quick test_random_trees;
    Alcotest.test_case "build and key match the oracle on degenerate pairs"
      `Quick test_degenerate_pair_lists;
    Alcotest.test_case "one shape, two realizations" `Quick
      test_one_shape_two_realizations;
    Alcotest.test_case "key stable across reads and record copies" `Quick
      test_key_stable_under_copies;
    Alcotest.test_case "cached key allocates nothing" `Quick
      test_cached_key_allocates_nothing;
    Alcotest.test_case "Solution.add of a known tree: constant allocation"
      `Quick test_solution_add_constant_alloc;
  ]
