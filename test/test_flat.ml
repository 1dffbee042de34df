(* The cache-flat kernel's equivalence contract, tested structure by
   structure: CSR adjacency replays Graph.iter_neighbors order, flat
   route weights match Route.weight bit for bit, the flat incidence
   index replays Incidence.iter_incident, and both array-backed Prim
   loops pick what Mst.prim picks on the exact lengths.  On top, sanity
   checks for the Solution fast path, the overlay's tree-build counter
   and the Obs.Alloc measurement helper. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)
let checkf = Alcotest.(check (float 0.0)) (* exact equality *)

(* --- random connected instances ---------------------------------------- *)

(* Random connected graph: a random spanning tree (each vertex attaches
   to a random earlier one) plus [extra] random chords. *)
let random_graph rng ~n ~extra =
  let g = Graph.create ~n in
  for v = 1 to n - 1 do
    let u = Rng.int rng v in
    ignore (Graph.add_edge g u v ~capacity:(1.0 +. Rng.float rng 9.0))
  done;
  for _ = 1 to extra do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v then
      ignore (Graph.add_edge g u v ~capacity:(1.0 +. Rng.float rng 9.0))
  done;
  g

let random_lengths rng m = Array.init m (fun _ -> 0.1 +. Rng.float rng 4.0)

(* --- Csr --------------------------------------------------------------- *)

let test_csr_matches_iter_neighbors () =
  for seed = 1 to 10 do
    let rng = Rng.create seed in
    let n = 5 + Rng.int rng 30 in
    let g = random_graph rng ~n ~extra:(Rng.int rng (2 * n)) in
    let csr = Flat.Csr.of_graph g in
    checki "vertex count" (Graph.n_vertices g) csr.Flat.Csr.n;
    checki "half-edge count" (2 * Graph.n_edges g)
      (Array.length csr.Flat.Csr.dst);
    for v = 0 to n - 1 do
      (* replay iter_neighbors against the CSR row, in order *)
      let cursor = ref csr.Flat.Csr.off.(v) in
      Graph.iter_neighbors g v (fun u id ->
          checki "csr dst order" u csr.Flat.Csr.dst.(!cursor);
          checki "csr eid order" id csr.Flat.Csr.eid.(!cursor);
          incr cursor);
      checki "row exactly covered" csr.Flat.Csr.off.(v + 1) !cursor
    done
  done

(* --- Routes / Inc ------------------------------------------------------ *)

(* Random route table over edge ids of [g]: each route is a short
   arbitrary edge-id sequence (weight/incidence don't validate walks). *)
let random_routes rng g ~count =
  let m = Graph.n_edges g in
  Array.init count (fun _ ->
      let hops = 1 + Rng.int rng 6 in
      let edges = Array.init hops (fun _ -> Rng.int rng m) in
      Route.make ~src:0 ~dst:1 edges)

let test_routes_weight_matches () =
  for seed = 1 to 10 do
    let rng = Rng.create (100 + seed) in
    let g = random_graph rng ~n:12 ~extra:20 in
    let routes = random_routes rng g ~count:(3 + Rng.int rng 10) in
    let lens = random_lengths rng (Graph.n_edges g) in
    let fr = Flat.Routes.of_routes routes in
    Array.iteri
      (fun oe route ->
        checkf "flat route weight"
          (Route.weight route ~length:(fun id -> lens.(id)))
          (Flat.Routes.weight fr oe lens))
      routes
  done

let test_inc_matches_incidence () =
  for seed = 1 to 10 do
    let rng = Rng.create (200 + seed) in
    let g = random_graph rng ~n:12 ~extra:20 in
    let m = Graph.n_edges g in
    let routes = random_routes rng g ~count:(3 + Rng.int rng 10) in
    let inc = Incidence.build ~n_edges:m routes in
    let fi = Flat.Inc.of_incidence inc in
    checki "index spans all edges" m (Array.length fi.Flat.Inc.off - 1) ;
    for e = 0 to m - 1 do
      let cursor = ref fi.Flat.Inc.off.(e) in
      Incidence.iter_incident inc e (fun oe mult ->
          checki "incident oedge order" oe fi.Flat.Inc.oedge.(!cursor);
          checki "incident multiplicity" mult fi.Flat.Inc.mult.(!cursor);
          incr cursor);
      checki "incidence row exactly covered" fi.Flat.Inc.off.(e + 1) !cursor
    done
  done

(* --- Prim -------------------------------------------------------------- *)

let test_prim_into_matches () =
  for seed = 1 to 20 do
    let rng = Rng.create (300 + seed) in
    let n = 4 + Rng.int rng 30 in
    let g = random_graph rng ~n ~extra:(Rng.int rng (3 * n)) in
    let w = random_lengths rng (Graph.n_edges g) in
    let mst = Mst.prim g ~length:(fun id -> w.(id)) in
    let csr = Flat.Csr.of_graph g in
    let ws = Flat.Prim.ws ~n in
    let edges = Array.make (n - 1) (-1) in
    Flat.Prim.into ws csr ~w ~edges;
    checkb "prim edge picks (in order)" true (mst.Mst.edges = edges);
    (* the workspace is reusable: a second run must be identical *)
    let edges2 = Array.make (n - 1) (-1) in
    Flat.Prim.into ws csr ~w ~edges:edges2;
    checkb "prim edges (reused ws)" true (edges = edges2)
  done

(* Both kernels raise [Mst.prim]'s messages, and both registry
   counters they bump carry a doc (the Prometheus # HELP line). *)
let test_prim_into_errors () =
  let expect_failure what msg f =
    match f () with
    | exception Failure m -> checks (what ^ ": disconnection message") msg m
    | () -> Alcotest.failf "%s: disconnected graph accepted" what
  in
  let expect_invalid what msg f =
    match f () with
    | exception Invalid_argument m ->
      checks (what ^ ": negative-length message") msg m
    | () -> Alcotest.failf "%s: negative length accepted" what
  in
  let g = Graph.create ~n:4 in
  ignore (Graph.add_edge g 0 1 ~capacity:1.0);
  ignore (Graph.add_edge g 2 3 ~capacity:1.0);
  let csr = Flat.Csr.of_graph g in
  let ws = Flat.Prim.ws ~n:4 in
  let edges = Array.make 3 (-1) in
  expect_failure "into" "Mst.prim: graph is disconnected" (fun () ->
      Flat.Prim.into ws csr ~w:[| 1.0; 1.0 |] ~edges);
  (* one single-edge route per edge of [g] *)
  let routes g =
    Flat.Routes.of_routes
      (Array.init (Graph.n_edges g) (fun id ->
           Route.make ~src:0 ~dst:1 [| id |]))
  in
  expect_failure "lazy_routes_into" "Mst.prim: graph is disconnected"
    (fun () ->
      ignore
        (Flat.Prim.lazy_routes_into ws csr ~w:[| 0.0; 0.0 |]
           ~dirty:[| true; true |] ~routes:(routes g) ~lens:[| 1.0; 1.0 |]
           ~edges));
  let g2 = random_graph (Rng.create 7) ~n:5 ~extra:3 in
  let m2 = Graph.n_edges g2 in
  let csr2 = Flat.Csr.of_graph g2 in
  let ws2 = Flat.Prim.ws ~n:5 in
  let w = Array.make m2 1.0 in
  w.(0) <- -1.0;
  expect_invalid "into" "Mst.prim: negative edge length" (fun () ->
      Flat.Prim.into ws2 csr2 ~w ~edges:(Array.make 4 (-1)));
  (* a stale bound of -inf is promising wherever it is relaxed, so the
     exact negative length is read *)
  let lens = Array.make m2 1.0 in
  lens.(0) <- -1.0;
  expect_invalid "lazy_routes_into" "Mst.prim: negative edge length"
    (fun () ->
      ignore
        (Flat.Prim.lazy_routes_into ws2 csr2
           ~w:(Array.make m2 neg_infinity) ~dirty:(Array.make m2 true)
           ~routes:(routes g2) ~lens ~edges:(Array.make 4 (-1))));
  List.iter
    (fun name ->
      match
        List.find_opt (fun (n, _, _) -> n = name) (Obs.Registry.counters ())
      with
      | Some (_, doc, _) ->
        checkb (Printf.sprintf "%s has a registry doc" name) true (doc <> "")
      | None -> Alcotest.failf "%s is not registered" name)
    [ "graph.prim_runs"; "graph.prim_lazy_runs" ]

(* The lazy kernel against [Mst.prim] on the exact lengths: dirty edges
   carry a stale lower bound, and the kernel must pick exactly the
   eager trajectory, store exact bits on every edge it refreshed, leave
   every other dirty edge stale, and count one refresh per flag it
   cleared. *)
let test_prim_lazy_routes_matches () =
  for seed = 1 to 20 do
    let rng = Rng.create (500 + seed) in
    let n = 4 + Rng.int rng 30 in
    let g = random_graph rng ~n ~extra:(Rng.int rng (3 * n)) in
    let m = Graph.n_edges g in
    (* each edge of [g] stands for a route over a physical graph *)
    let physical = random_graph rng ~n:12 ~extra:20 in
    let routes = Flat.Routes.of_routes (random_routes rng physical ~count:m) in
    let lens = random_lengths rng (Graph.n_edges physical) in
    let exact = Array.init m (fun id -> Flat.Routes.weight routes id lens) in
    let dirty = Array.init m (fun _ -> Rng.int rng 3 = 0) in
    let w =
      Array.init m (fun id ->
          if dirty.(id) then exact.(id) /. (1.5 +. Rng.float rng 2.0)
          else exact.(id))
    in
    let stale = Array.copy w and was_dirty = Array.copy dirty in
    let csr = Flat.Csr.of_graph g in
    let ws = Flat.Prim.ws ~n in
    let edges = Array.make (n - 1) (-1) in
    let refreshed =
      Flat.Prim.lazy_routes_into ws csr ~w ~dirty ~routes ~lens ~edges
    in
    let mst = Mst.prim g ~length:(fun id -> exact.(id)) in
    checkb "edge picks = Mst.prim on exact lengths" true
      (mst.Mst.edges = edges);
    let same_bits a b =
      Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
    in
    let cleared = ref 0 in
    for id = 0 to m - 1 do
      if was_dirty.(id) && not dirty.(id) then begin
        incr cleared;
        checkb "refreshed edge holds exact bits" true
          (same_bits exact.(id) w.(id))
      end
      else
        checkb "untouched edge keeps its value" true
          (same_bits stale.(id) w.(id))
    done;
    checki "refresh count = cleared flags" !cleared refreshed;
    (* laziness is real: a clean cache refreshes nothing *)
    if not (Array.exists Fun.id was_dirty) then
      checki "no refresh on clean cache" 0 refreshed
  done

(* --- overlay instances ---------------------------------------------------- *)

let overlay_instance seed =
  let rng = Rng.create seed in
  let topo = Waxman.generate rng { Waxman.default_params with Waxman.n = 30 } in
  let g = topo.Topology.graph in
  let session =
    Session.random rng ~id:0 ~topology_size:(Topology.n_nodes topo)
      ~size:(4 + (seed mod 3)) ~demand:10.0
  in
  (rng, g, session)

(* --- Solution fast path ------------------------------------------------ *)

let test_solution_repeat_tree_accumulates () =
  let _, g, session = overlay_instance 5 in
  let overlay = Overlay.create g Overlay.Ip session in
  let tree = Overlay.min_spanning_tree overlay ~length:(fun _ -> 1.0) in
  let sol = Solution.create [| session |] in
  (* same physical tree repeatedly: the memoized tail entry must absorb
     the rates into a single tree record *)
  Solution.add sol tree 1.0;
  Solution.add sol tree 2.0;
  Solution.add sol tree 0.5;
  checki "one tree recorded" 1 (Solution.n_trees sol 0);
  checkf "rates accumulated" 3.5 (Solution.session_rate sol 0);
  (* a structurally equal but physically distinct tree still merges *)
  let tree' =
    Otree.build ~session_id:0 ~pairs:tree.Otree.pairs
      ~routes:tree.Otree.routes
  in
  Solution.add sol tree' 1.0;
  checki "still one tree" 1 (Solution.n_trees sol 0);
  checkf "rate includes key-matched add" 4.5 (Solution.session_rate sol 0)

(* --- overlay.tree_builds ------------------------------------------------ *)

(* One count per [Otree.t] the overlay constructs: the IP path counts
   its memo misses only, the arbitrary and [tree_of_pairs] paths every
   tree they build. *)
let test_tree_builds_counter () =
  let c = Obs.Counter.make "overlay.tree_builds" in
  let builds f =
    let before = Obs.Counter.value c in
    f ();
    Obs.Counter.value c - before
  in
  let _, g, session = overlay_instance 7 in
  let length _ = 1.0 in
  let mst o () = ignore (Overlay.min_spanning_tree o ~length) in
  let ip = Overlay.create g Overlay.Ip session in
  checki "ip: first tree is a memo miss" 1 (builds (mst ip));
  checki "ip: the same tree again is a memo hit" 0 (builds (mst ip));
  let arbitrary = Overlay.create g Overlay.Arbitrary session in
  checki "arbitrary: one build per call" 2
    (builds (fun () -> mst arbitrary (); mst arbitrary ()));
  let pairs = (Overlay.min_spanning_tree ip ~length).Otree.pairs in
  checki "tree_of_pairs: one build" 1
    (builds (fun () -> ignore (Overlay.tree_of_pairs ip ~pairs ~length)))

(* --- Obs.Alloc --------------------------------------------------------- *)

let test_alloc_measure () =
  (match Obs.Alloc.measure ~iters:0 (fun () -> ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "iters=0 accepted");
  let none = Obs.Alloc.measure ~warmup:10 ~iters:1000 (fun () -> ()) in
  checkb
    (Printf.sprintf "no-op allocates ~nothing (%.2f words/iter)" none)
    true (none < 4.0);
  let boxed =
    Obs.Alloc.measure ~warmup:10 ~iters:1000 (fun () ->
        ignore (Sys.opaque_identity (Array.make 8 0.0)))
  in
  (* 8 unboxed floats + header = 9 words, measured loosely *)
  checkb
    (Printf.sprintf "array alloc visible (%.2f words/iter)" boxed)
    true
    (boxed >= 8.0 && boxed <= 32.0);
  checkb "self_overhead is small and nonnegative" true
    (Obs.Alloc.self_overhead () >= 0.0 && Obs.Alloc.self_overhead () < 16.0)

let suite =
  [
    Alcotest.test_case "csr replays iter_neighbors order" `Quick
      test_csr_matches_iter_neighbors;
    Alcotest.test_case "flat route weight = Route.weight" `Quick
      test_routes_weight_matches;
    Alcotest.test_case "flat incidence replays iter_incident" `Quick
      test_inc_matches_incidence;
    Alcotest.test_case "Prim.into = Mst.prim (trajectory)" `Quick
      test_prim_into_matches;
    Alcotest.test_case "Prim.into keeps Mst's error contract" `Quick
      test_prim_into_errors;
    Alcotest.test_case "Prim.lazy_routes_into = lazy-bound Mst.prim" `Quick
      test_prim_lazy_routes_matches;
    Alcotest.test_case "solution accumulates repeated trees" `Quick
      test_solution_repeat_tree_accumulates;
    Alcotest.test_case "overlay.tree_builds counts constructed trees" `Quick
      test_tree_builds_counter;
    Alcotest.test_case "Obs.Alloc.measure calibrates out its overhead" `Quick
      test_alloc_measure;
  ]
