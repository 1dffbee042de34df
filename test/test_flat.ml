(* The cache-flat kernel's equivalence contract, tested structure by
   structure: CSR adjacency replays Graph.iter_neighbors order, flat
   route weights match Route.weight bit for bit, the flat incidence
   index replays Incidence.iter_incident, and the array-backed Prim
   variants reproduce Mst.prim / Mst.prim_lazy decision-for-decision.
   On top, an overlay-level lockstep run (flat engine vs record engine
   under the same dual-update schedule) and sanity checks for the
   Solution fast path and the Obs.Alloc measurement helper. *)

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

let test_prim_into_errors () =
  let g = Graph.create ~n:4 in
  ignore (Graph.add_edge g 0 1 ~capacity:1.0);
  ignore (Graph.add_edge g 2 3 ~capacity:1.0);
  let csr = Flat.Csr.of_graph g in
  let ws = Flat.Prim.ws ~n:4 in
  let edges = Array.make 3 (-1) in
  (match Flat.Prim.into ws csr ~w:[| 1.0; 1.0 |] ~edges with
  | exception Failure msg ->
    checks "disconnection message" "Mst.prim: graph is disconnected" msg
  | () -> Alcotest.fail "disconnected graph accepted");
  let g2 = random_graph (Rng.create 7) ~n:5 ~extra:3 in
  let csr2 = Flat.Csr.of_graph g2 in
  let ws2 = Flat.Prim.ws ~n:5 in
  let w = Array.make (Graph.n_edges g2) 1.0 in
  w.(0) <- -1.0;
  match Flat.Prim.into ws2 csr2 ~w ~edges:(Array.make 4 (-1)) with
  | exception Invalid_argument msg ->
    checks "negative-length message" "Mst.prim: negative edge length" msg
  | () -> Alcotest.fail "negative length accepted"

(* Lazy Prim, mirrored against Mst.prim_lazy driven the way the overlay
   engine drives it: a cache array holding stale lower bounds on dirty
   edges, refreshed to the exact value on demand. *)
let test_prim_lazy_matches () =
  for seed = 1 to 20 do
    let rng = Rng.create (400 + seed) in
    let n = 4 + Rng.int rng 30 in
    let g = random_graph rng ~n ~extra:(Rng.int rng (3 * n)) in
    let m = Graph.n_edges g in
    let exact = random_lengths rng m in
    (* dirty edges carry a stale value that is a strict lower bound *)
    let dirty = Array.init m (fun _ -> Rng.int rng 3 = 0) in
    let stale i = if dirty.(i) then exact.(i) /. (1.5 +. Rng.float rng 2.0)
      else exact.(i)
    in
    let cache_legacy = Array.init m stale in
    let cache_flat = Array.copy cache_legacy in
    let dirty_flat = Array.copy dirty in
    let legacy_refreshes = ref 0 and flat_refreshes = ref 0 in
    let mst =
      Mst.prim_lazy g
        ~lower:(fun id -> cache_legacy.(id))
        ~exact:(fun id ->
          if cache_legacy.(id) <> exact.(id) then incr legacy_refreshes;
          cache_legacy.(id) <- exact.(id);
          exact.(id))
    in
    let csr = Flat.Csr.of_graph g in
    let ws = Flat.Prim.ws ~n in
    let edges = Array.make (n - 1) (-1) in
    Flat.Prim.lazy_into ws csr ~w:cache_flat ~dirty:dirty_flat
      ~refresh:(fun id ->
        incr flat_refreshes;
        cache_flat.(id) <- exact.(id);
        dirty_flat.(id) <- false)
      ~edges;
    checkb "lazy edge picks" true (mst.Mst.edges = edges);
    (* laziness is real: clean instances refresh nothing *)
    if not (Array.exists Fun.id dirty) then
      checki "no refresh on clean cache" 0 !flat_refreshes
  done

(* The in-place refresh of [lazy_routes_into] against [lazy_into] with
   the equivalent closure: same picks, same refreshed cache and dirty
   flags, and a refresh count equal to the closure's call count. *)
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
    let dirty = Array.init m (fun _ -> Rng.int rng 3 = 0) in
    let cache =
      Array.init m (fun id ->
          let exact = Flat.Routes.weight routes id lens in
          if dirty.(id) then exact /. (1.5 +. Rng.float rng 2.0) else exact)
    in
    let csr = Flat.Csr.of_graph g in
    let ws = Flat.Prim.ws ~n in
    let w_closure = Array.copy cache and dirty_closure = Array.copy dirty in
    let calls = ref 0 in
    let edges_closure = Array.make (n - 1) (-1) in
    Flat.Prim.lazy_into ws csr ~w:w_closure ~dirty:dirty_closure
      ~refresh:(fun id ->
        incr calls;
        w_closure.(id) <- Flat.Routes.weight routes id lens;
        dirty_closure.(id) <- false)
      ~edges:edges_closure;
    let w_inline = Array.copy cache and dirty_inline = Array.copy dirty in
    let edges_inline = Array.make (n - 1) (-1) in
    let refreshed =
      Flat.Prim.lazy_routes_into ws csr ~w:w_inline ~dirty:dirty_inline
        ~routes ~lens ~edges:edges_inline
    in
    checkb "edge picks (in order)" true (edges_closure = edges_inline);
    let same_bits a b =
      Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
    in
    checkb "refreshed cache (bits)" true
      (Array.for_all2 same_bits w_closure w_inline);
    checkb "dirty flags" true (dirty_closure = dirty_inline);
    checki "refresh count" !calls refreshed
  done

(* --- overlay engine lockstep: flat vs record --------------------------- *)

let lockstep_instance seed =
  let rng = Rng.create seed in
  let topo = Waxman.generate rng { Waxman.default_params with Waxman.n = 30 } in
  let g = topo.Topology.graph in
  let session =
    Session.random rng ~id:0 ~topology_size:(Topology.n_nodes topo)
      ~size:(4 + (seed mod 3)) ~demand:10.0
  in
  (rng, g, session)

(* Drive the same FPTAS-shaped dual-update schedule (multiplicative
   increases along the winning tree, periodic renormalization) through a
   flat-engine overlay and a record-engine overlay, demanding the exact
   same tree at every step. *)
let run_lockstep mode seed =
  let rng, g, session = lockstep_instance seed in
  let flat = Overlay.create g mode session in
  let legacy = Overlay.create g mode session in
  Overlay.set_flat legacy false;
  checkb "flat engine on by default" true (Overlay.flat_enabled flat);
  checkb "record engine off after set_flat" false (Overlay.flat_enabled legacy);
  let m = Graph.n_edges g in
  let lens = Array.make m 1.0 in
  let length id = lens.(id) in
  Overlay.begin_incremental flat;
  Overlay.begin_incremental legacy;
  Overlay.bind_lengths flat lens;
  let notify = Overlay.notify_index [| flat; legacy |] in
  Fun.protect
    ~finally:(fun () ->
      Overlay.unbind_lengths flat;
      Overlay.end_incremental flat;
      Overlay.end_incremental legacy)
    (fun () ->
      for step = 1 to 60 do
        let tf = Overlay.min_spanning_tree flat ~length in
        let tl = Overlay.min_spanning_tree legacy ~length in
        checks
          (Printf.sprintf "identical tree at step %d (seed %d)" step seed)
          (Otree.key tl) (Otree.key tf);
        (* bump duals along the winning tree, as the solvers do *)
        let usage = tf.Otree.usage in
        Array.iter
          (fun (id, c) ->
            lens.(id) <- lens.(id) *. (1.0 +. (0.1 *. float_of_int c)))
          usage;
        Overlay.notify_usage notify usage;
        (* occasional rescale, plus an off-tree bump through the
           single-edge notification *)
        if step mod 13 = 0 then begin
          for e = 0 to m - 1 do
            lens.(e) <- lens.(e) *. 0.0625
          done;
          Overlay.notify_rescale flat;
          Overlay.notify_rescale legacy
        end
        else if step mod 5 = 0 then begin
          let e = Rng.int rng m in
          lens.(e) <- lens.(e) *. 1.25;
          Overlay.notify_length_increase flat e;
          Overlay.notify_length_increase legacy e
        end
      done)

let test_lockstep_ip () = List.iter (run_lockstep Overlay.Ip) [ 3; 14; 27 ]

let test_lockstep_arbitrary () =
  List.iter (run_lockstep Overlay.Arbitrary) [ 3; 14 ]

(* --- Solution fast path ------------------------------------------------ *)

let test_solution_repeat_tree_accumulates () =
  let _, g, session = lockstep_instance 5 in
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

(* One count per [Otree.t] the overlay constructs: the flat IP path
   counts its memo misses only, the record, arbitrary and
   [tree_of_pairs] paths every tree they build. *)
let test_tree_builds_counter () =
  let c = Obs.Counter.make "overlay.tree_builds" in
  let builds f =
    let before = Obs.Counter.value c in
    f ();
    Obs.Counter.value c - before
  in
  let _, g, session = lockstep_instance 7 in
  let length _ = 1.0 in
  let mst o () = ignore (Overlay.min_spanning_tree o ~length) in
  let flat = Overlay.create g Overlay.Ip session in
  checki "flat ip: first tree is a memo miss" 1 (builds (mst flat));
  checki "flat ip: the same tree again is a memo hit" 0 (builds (mst flat));
  let record = Overlay.create g Overlay.Ip session in
  Overlay.set_flat record false;
  checki "record ip: one build per call" 2
    (builds (fun () -> mst record (); mst record ()));
  let arbitrary = Overlay.create g Overlay.Arbitrary session in
  checki "arbitrary: one build per call" 2
    (builds (fun () -> mst arbitrary (); mst arbitrary ()));
  let pairs = (Overlay.min_spanning_tree flat ~length).Otree.pairs in
  checki "tree_of_pairs: one build" 1
    (builds (fun () -> ignore (Overlay.tree_of_pairs flat ~pairs ~length)))

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
    Alcotest.test_case "Prim.lazy_into = Mst.prim_lazy" `Quick
      test_prim_lazy_matches;
    Alcotest.test_case "Prim.lazy_routes_into = lazy_into + Routes.weight"
      `Quick test_prim_lazy_routes_matches;
    Alcotest.test_case "overlay lockstep flat vs record (ip)" `Quick
      test_lockstep_ip;
    Alcotest.test_case "overlay lockstep flat vs record (arbitrary)" `Quick
      test_lockstep_arbitrary;
    Alcotest.test_case "solution accumulates repeated trees" `Quick
      test_solution_repeat_tree_accumulates;
    Alcotest.test_case "overlay.tree_builds counts constructed trees" `Quick
      test_tree_builds_counter;
    Alcotest.test_case "Obs.Alloc.measure calibrates out its overhead" `Quick
      test_alloc_measure;
  ]
