(* Property tests for the incremental overlay-length engine: after N
   random multiplicative length updates plus renormalizations pushed
   through [Overlay.notify_length_update] / [notify_usage] /
   [notify_rescale], the cached overlay weights and the chosen MST must
   match a from-scratch [Route.weight] recomputation (an overlay with
   the engine off) — in both Ip and Arbitrary modes. *)

let checkb = Alcotest.(check bool)
let checkf = Alcotest.(check (float 0.0))  (* exact equality *)

(* Two mathematically equal sums computed in different association
   orders (per-distinct-edge n_e * d_e vs per-route folds) may differ in
   the last ulps; everything computed through the same fold must be
   exactly equal and is checked with [checkf] instead. *)
let check_close msg expected actual =
  let scale = Float.max 1.0 (Float.max (abs_float expected) (abs_float actual)) in
  checkb
    (Printf.sprintf "%s (%.17g vs %.17g)" msg expected actual)
    true
    (abs_float (expected -. actual) <= 1e-9 *. scale)

let instance seed =
  let rng = Rng.create seed in
  let topo = Waxman.generate rng { Waxman.default_params with Waxman.n = 40 } in
  let g = topo.Topology.graph in
  let size = 5 + (seed mod 3) in
  let session =
    Session.random rng ~id:0 ~topology_size:(Topology.n_nodes topo) ~size
      ~demand:10.0
  in
  (rng, g, session)

(* Sum of fresh [Route.weight]s over the tree's routes — the from-scratch
   value the engine must reproduce exactly. *)
let scratch_tree_weight tree ~length =
  Array.fold_left
    (fun acc r -> acc +. Route.weight r ~length)
    0.0 tree.Otree.routes

(* Drive one random update schedule against a notified (incremental)
   overlay and a scratch overlay, asserting identical trees throughout.

   [cross_check] validates every cached weight on every call (but
   disables the monotone Prim skip, which by design leaves non-tree
   weights stale).  [monotone] announces updates through
   [notify_length_increase] (all growths here are >= 1), exercising the
   skip; otherwise the generic [notify_length_update] path — and, with
   [decreases], update factors that may shrink a length — is tested.
   [usage] first bumps the duals along the last winning tree, as the
   solvers do, announced by [notify_usage] on one index over both
   overlays: the scratch overlay's engine is off, so the marks it gets
   must change nothing. *)
let run_ip_schedule ~cross_check ~monotone ?(decreases = false)
    ?(usage = false) seed =
  let rng, g, session = instance seed in
  let inc = Overlay.create g Overlay.Ip session in
  let scr = Overlay.create g Overlay.Ip session in
  let m = Graph.n_edges g in
  let lens = Array.make m 1.0 in
  let length id = lens.(id) in
  Overlay.begin_incremental inc lens;
  let notify = Overlay.notify_index [| inc; scr |] in
  let winner = ref [||] in
  let was_cross_check = Overlay.cross_check_enabled () in
  Overlay.set_cross_check cross_check;
  Fun.protect
    ~finally:(fun () ->
      Overlay.set_cross_check was_cross_check;
      Overlay.end_incremental inc)
    (fun () ->
      for step = 1 to 40 do
        if usage then begin
          Array.iter
            (fun (e, c) ->
              lens.(e) <- lens.(e) *. (1.0 +. (0.1 *. float_of_int c)))
            !winner;
          Overlay.notify_usage notify !winner
        end;
        (* a handful of multiplicative updates, like one FPTAS iteration *)
        let touched = 1 + Rng.int rng 6 in
        for _ = 1 to touched do
          let e = Rng.int rng m in
          let factor =
            if decreases then 0.25 +. Rng.float rng 2.0
            else 1.0 +. Rng.float rng 1.5
          in
          lens.(e) <- lens.(e) *. factor;
          if monotone then Overlay.notify_length_increase inc e
          else Overlay.notify_length_update inc e
        done;
        (* occasional global renormalization, as the solvers do *)
        if step mod 9 = 0 then begin
          for e = 0 to m - 1 do
            lens.(e) <- lens.(e) *. 0.125
          done;
          Overlay.notify_rescale inc
        end;
        (* cross-check mode already validates every cached weight against
           a fresh sum over [lens] inside this call; it raises on
           mismatch *)
        let t_inc = Overlay.min_spanning_tree inc lens in
        let t_scr = Overlay.min_spanning_tree scr lens in
        winner := t_inc.Otree.usage;
        checkb
          (Printf.sprintf "seed %d step %d: same tree" seed step)
          true (Otree.equal t_scr t_inc);
        checkf
          (Printf.sprintf "seed %d step %d: same tree weight" seed step)
          (Otree.weight t_scr lens)
          (Otree.weight t_inc lens);
        check_close
          (Printf.sprintf "seed %d step %d: tree weight vs scratch" seed step)
          (scratch_tree_weight t_scr ~length)
          (Otree.weight t_inc lens)
      done;
      (* the engine must also have done strictly less re-weighing *)
      checkb
        (Printf.sprintf "seed %d: fewer weight ops (%d < %d)" seed
           (Overlay.weight_operations inc)
           (Overlay.weight_operations scr))
        true
        (Overlay.weight_operations inc < Overlay.weight_operations scr))

let test_ip_incremental_matches_scratch () =
  List.iter
    (run_ip_schedule ~cross_check:true ~monotone:false)
    [ 1; 2; 3; 7; 11 ]

let test_ip_monotone_skip_matches_scratch () =
  List.iter (run_ip_schedule ~cross_check:false ~monotone:true) [ 1; 2; 3; 7; 11 ]

let test_ip_decreasing_updates_match_scratch () =
  List.iter
    (run_ip_schedule ~cross_check:false ~monotone:false ~decreases:true)
    [ 1; 2; 3 ]

let test_ip_notify_usage_matches_scratch () =
  List.iter
    (run_ip_schedule ~cross_check:false ~monotone:true ~usage:true)
    [ 3; 14; 27 ]

(* Arbitrary mode has no weight cache, but shares the reusable Dijkstra
   workspace path: repeated snapshots must keep producing the same trees
   as an independent context, and tree weights must equal fresh
   Route.weight sums. *)
let run_arbitrary_schedule seed =
  let rng, g, session = instance seed in
  let o1 = Overlay.create g Overlay.Arbitrary session in
  let o2 = Overlay.create g Overlay.Arbitrary session in
  let m = Graph.n_edges g in
  let lens = Array.make m 1.0 in
  let length id = lens.(id) in
  for step = 1 to 15 do
    let touched = 1 + Rng.int rng 6 in
    for _ = 1 to touched do
      let e = Rng.int rng m in
      lens.(e) <- lens.(e) *. (1.0 +. Rng.float rng 1.5)
    done;
    if step mod 6 = 0 then
      for e = 0 to m - 1 do
        lens.(e) <- lens.(e) *. 0.125
      done;
    let t1 = Overlay.min_spanning_tree o1 lens in
    let t2 = Overlay.min_spanning_tree o2 lens in
    checkb
      (Printf.sprintf "seed %d step %d: same arbitrary tree" seed step)
      true (Otree.equal t1 t2);
    checkf
      (Printf.sprintf "seed %d step %d: same arbitrary weight" seed step)
      (Otree.weight t1 lens) (Otree.weight t2 lens);
    check_close
      (Printf.sprintf "seed %d step %d: arbitrary weight vs scratch" seed step)
      (scratch_tree_weight t1 ~length)
      (Otree.weight t1 lens)
  done

let test_arbitrary_workspace_matches_scratch () =
  List.iter run_arbitrary_schedule [ 1; 4; 9 ]

(* A missed notification must be caught by the cross-check mode. *)
let test_cross_check_catches_missed_notification () =
  let _rng, g, session = instance 5 in
  let o = Overlay.create g Overlay.Ip session in
  let m = Graph.n_edges g in
  let lens = Array.make m 1.0 in
  Overlay.begin_incremental o lens;
  let was = Overlay.cross_check_enabled () in
  Overlay.set_cross_check true;
  Fun.protect
    ~finally:(fun () ->
      Overlay.set_cross_check was;
      Overlay.end_incremental o)
    (fun () ->
      ignore (Overlay.min_spanning_tree o lens);
      (* mutate a covered edge without notifying *)
      let covered = Overlay.covered_edges o in
      lens.(covered.(0)) <- 42.0;
      let raised =
        try
          ignore (Overlay.min_spanning_tree o lens);
          false
        with Failure _ -> true
      in
      checkb "cross-check detects stale cache" true raised)

(* With the engine on, an MST call must pass the bound array itself: an
   equal copy is refused too, because the engine reads the bound array
   and the caller's notifications describe that one.  After
   [end_incremental] any array is accepted. *)
let test_engine_refuses_another_array () =
  let _rng, g, session = instance 6 in
  let o = Overlay.create g Overlay.Ip session in
  let lens = Array.make (Graph.n_edges g) 1.0 in
  Overlay.begin_incremental o lens;
  let bound = Overlay.min_spanning_tree o lens in
  (match Overlay.min_spanning_tree o (Array.copy lens) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "an equal copy of the bound array was accepted");
  Overlay.end_incremental o;
  checkb "engine off: an equal copy gives the same tree" true
    (Otree.equal bound (Overlay.min_spanning_tree o (Array.copy lens)))

(* The solvers must produce identical output with the engine on or off. *)
let test_solver_output_invariant () =
  let _rng, g, session = instance 13 in
  let solve ~incremental =
    let o = Overlay.create g Overlay.Ip session in
    Max_flow.solve ~incremental g [| o |] ~epsilon:0.05
  in
  let a = solve ~incremental:true in
  let b = solve ~incremental:false in
  Alcotest.(check int) "same iterations" b.Max_flow.iterations a.Max_flow.iterations;
  checkf "same rate"
    (Solution.session_rate b.Max_flow.solution 0)
    (Solution.session_rate a.Max_flow.solution 0);
  checkb "same trees and rates" true
    (Solution.equal a.Max_flow.solution b.Max_flow.solution)

(* The monotone skip is weight-exact, not tree-exact.  With every length
   1.0, doubling a covered edge that lies on no route of the current
   tree leaves that tree minimum, and the skip returns it; a fresh Prim
   breaks the ties of the new weights its own way and may return another
   tree of the same weight (seed 275 does, at weight 8, and seed 379, at
   weight 11).  So the weights are compared, not the trees. *)
let test_monotone_skip_weight_exact () =
  let was = Overlay.cross_check_enabled () in
  Overlay.set_cross_check false;
  Fun.protect ~finally:(fun () -> Overlay.set_cross_check was) @@ fun () ->
  List.iter
    (fun seed ->
      let rng = Rng.create seed in
      let topo =
        Waxman.generate rng { Waxman.default_params with Waxman.n = 30 }
      in
      let g = topo.Topology.graph in
      let session =
        Session.random rng ~id:0 ~topology_size:(Topology.n_nodes topo)
          ~size:7 ~demand:10.0
      in
      let m = Graph.n_edges g in
      let lens = Array.make m 1.0 in
      let probe = Overlay.create g Overlay.Ip session in
      let on_tree = Array.make m false in
      Array.iter
        (fun (e, _) -> on_tree.(e) <- true)
        (Overlay.min_spanning_tree probe lens).Otree.usage;
      Array.iter
        (fun e ->
          if not on_tree.(e) then begin
            let inc = Overlay.create g Overlay.Ip session in
            Overlay.begin_incremental inc lens;
            let before = Overlay.min_spanning_tree inc lens in
            lens.(e) <- 2.0;
            Overlay.notify_length_increase inc e;
            let skipped = Overlay.min_spanning_tree inc lens in
            let fresh =
              Overlay.min_spanning_tree (Overlay.create g Overlay.Ip session)
                lens
            in
            lens.(e) <- 1.0;
            checkb
              (Printf.sprintf "seed %d edge %d: the skip keeps the tree" seed e)
              true (skipped == before);
            checkf
              (Printf.sprintf "seed %d edge %d: a fresh overlay's weight" seed e)
              (Otree.weight fresh lens) (Otree.weight skipped lens)
          end)
        (Overlay.covered_edges probe))
    [ 275; 379 ]

(* The best-first winner sweep with more than one session: 6 sessions of
   3-6 members, each instance solved cold and warm-started from random
   positive lengths.  The sweep stops at the first session whose bound
   loses, so it must pick the same winners as evaluating every session
   (~incremental:false) with at most 60% of its MST calls. *)
let test_sweep_many_sessions () =
  List.iter
    (fun seed ->
      let rng = Rng.create seed in
      let topo =
        Waxman.generate rng { Waxman.default_params with Waxman.n = 60 }
      in
      let g = topo.Topology.graph in
      let sessions =
        Array.init 6 (fun id ->
            Session.random rng ~id ~topology_size:(Topology.n_nodes topo)
              ~size:(3 + Rng.int rng 4) ~demand:10.0)
      in
      let warm =
        {
          Max_flow.prev_lens =
            Array.init (Graph.n_edges g) (fun _ -> 0.1 +. Rng.float rng 4.0);
          room = 3.0;
        }
      in
      List.iter
        (fun (label, warm_start) ->
          let solve ~incremental =
            let overlays =
              Array.map (fun s -> Overlay.create g Overlay.Ip s) sessions
            in
            Max_flow.solve ~incremental ?warm_start g overlays ~epsilon:0.05
          in
          let a = solve ~incremental:true and b = solve ~incremental:false in
          let what = Printf.sprintf "seed %d %s" seed label in
          Alcotest.(check int) (what ^ ": iterations") b.Max_flow.iterations
            a.Max_flow.iterations;
          Alcotest.(check int64) (what ^ ": objective bits")
            (Int64.bits_of_float
               (Solution.overall_throughput b.Max_flow.solution))
            (Int64.bits_of_float
               (Solution.overall_throughput a.Max_flow.solution));
          checkb (what ^ ": trees and rates") true
            (Solution.equal a.Max_flow.solution b.Max_flow.solution);
          let ratio =
            float_of_int a.Max_flow.mst_operations
            /. float_of_int b.Max_flow.mst_operations
          in
          if ratio > 0.6 then
            Alcotest.failf "%s: %d MST calls, %.0f%% of the eager %d" what
              a.Max_flow.mst_operations (100.0 *. ratio)
              b.Max_flow.mst_operations)
        [ ("cold", None); ("warm", Some warm) ])
    [ 1; 2; 3; 4; 5 ]

let suite =
  [
    Alcotest.test_case "ip incremental = scratch (property)" `Quick
      test_ip_incremental_matches_scratch;
    Alcotest.test_case "ip monotone skip = scratch (property)" `Quick
      test_ip_monotone_skip_matches_scratch;
    Alcotest.test_case "ip decreasing updates = scratch (property)" `Quick
      test_ip_decreasing_updates_match_scratch;
    Alcotest.test_case "arbitrary workspace = scratch (property)" `Quick
      test_arbitrary_workspace_matches_scratch;
    Alcotest.test_case "cross-check catches missed notification" `Quick
      test_cross_check_catches_missed_notification;
    Alcotest.test_case "solver output independent of engine" `Quick
      test_solver_output_invariant;
    Alcotest.test_case "monotone skip keeps a tree of equal weight" `Quick
      test_monotone_skip_weight_exact;
    Alcotest.test_case "best-first sweep over 6 sessions = every session"
      `Quick test_sweep_many_sessions;
    Alcotest.test_case "ip notify_usage on two overlays = scratch (property)"
      `Quick test_ip_notify_usage_matches_scratch;
    Alcotest.test_case "engine on refuses another length array" `Quick
      test_engine_refuses_another_array;
  ]
