(* Certification kernel + property harness: a randomized sweep proving
   Check.certify accepts every solver's output across the full
   algorithm x topology x routing-mode x worker matrix, negative tests
   proving it rejects hand-corrupted solutions with named violations,
   and self-tests of the Prop engine (shrinking, replay seeds, case
   round-trip). *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let verdict_to_string v = Format.asprintf "%a" Check.pp_verdict v

let names_of v = List.map Check.violation_name v.Check.violations

let assert_names ~what expected v =
  checkb
    (Printf.sprintf "%s rejected" what)
    false (Check.ok v);
  List.iter
    (fun name ->
      checkb
        (Printf.sprintf "%s names %s (got: %s)" what name
           (String.concat "," (names_of v)))
        true
        (List.mem name (names_of v)))
    expected

(* --- reference oracle ---------------------------------------------------- *)

(* The structural certificate as it was before the array recount, kept
   as an oracle: [Hashtbl] recounts, a union-find without path
   compression, and a route walk with a closure and an exception
   handler.  One change: a pair without a route is reported as
   [Broken_route], where the original raised [Invalid_argument]. *)
module Reference = struct
  open Check

  let route_is_valid g (t : Route.t) =
    if t.Route.src = t.Route.dst then Array.length t.Route.edges = 0
    else begin
      let rec walk at i =
        if i = Array.length t.Route.edges then at = t.Route.dst
        else begin
          match Graph.other g t.Route.edges.(i) at with
          | next -> walk next (i + 1)
          | exception Invalid_argument _ -> false
        end
      in
      walk t.Route.src 0
    end

  let spanning_detail pairs ~n =
    if Array.length pairs <> n - 1 then
      Some (Printf.sprintf "%d overlay edges where %d were required"
              (Array.length pairs) (n - 1))
    else begin
      let parent = Array.init n (fun i -> i) in
      let rec find x = if parent.(x) = x then x else find parent.(x) in
      let bad = ref None in
      Array.iter
        (fun (a, b) ->
          if !bad = None then
            if a < 0 || b < 0 || a >= n || b >= n then
              bad := Some (Printf.sprintf "member slot out of range in (%d,%d)" a b)
            else if a = b then
              bad := Some (Printf.sprintf "self-loop (%d,%d)" a b)
            else begin
              let ra = find a and rb = find b in
              if ra = rb then
                bad := Some (Printf.sprintf "(%d,%d) closes a cycle" a b)
              else parent.(ra) <- rb
            end)
        pairs;
      !bad
    end

  let check_tree ~violations ~loads g slot session (tree : Otree.t) rate =
    if rate < 0.0 then
      violations := Negative_rate { slot; rate } :: !violations;
    if tree.Otree.session_id <> session.Session.id then
      violations :=
        Wrong_session
          { slot; tree_session_id = tree.Otree.session_id;
            expected = session.Session.id }
        :: !violations;
    let n = Session.size session in
    let members = session.Session.members in
    (match spanning_detail tree.Otree.pairs ~n with
    | Some detail ->
      violations := Not_spanning { slot; n_members = n; detail } :: !violations
    | None -> ());
    let recomputed = Hashtbl.create 32 in
    Array.iteri
      (fun j ((a, b) as pair) ->
        if j >= Array.length tree.Otree.routes then
          violations := Broken_route { slot; pair } :: !violations
        else begin
          let route = tree.Otree.routes.(j) in
          if a >= 0 && b >= 0 && a < n && b < n then begin
            let es = members.(a) and ed = members.(b) in
            let src = route.Route.src and dst = route.Route.dst in
            if not ((src = es && dst = ed) || (src = ed && dst = es)) then
              violations :=
                Route_endpoints
                  { slot; pair; src; dst; expected_src = es; expected_dst = ed }
                :: !violations
          end;
          if not (route_is_valid g route) then
            violations := Broken_route { slot; pair } :: !violations;
          Route.iter_edges route (fun id ->
              Hashtbl.replace recomputed id
                (1 + Option.value ~default:0 (Hashtbl.find_opt recomputed id)))
        end)
      tree.Otree.pairs;
    let seen = Hashtbl.create 32 in
    Otree.iter_usage tree (fun id claimed ->
        Hashtbl.replace seen id ();
        let actual = Option.value ~default:0 (Hashtbl.find_opt recomputed id) in
        if actual <> claimed then
          violations :=
            Usage_mismatch { slot; edge = id; claimed; recomputed = actual }
            :: !violations);
    Hashtbl.iter
      (fun id actual ->
        if not (Hashtbl.mem seen id) then
          violations :=
            Usage_mismatch { slot; edge = id; claimed = 0; recomputed = actual }
            :: !violations)
      recomputed;
    Hashtbl.iter
      (fun id count ->
        if id >= 0 && id < Array.length loads then
          loads.(id) <- loads.(id) +. (float_of_int count *. rate))
      recomputed

  let certify ?(tol = default_tol) g solution =
    let sessions = Solution.sessions solution in
    let violations = ref [] in
    let loads = Array.make (Graph.n_edges g) 0.0 in
    let n_trees = ref 0 in
    Array.iteri
      (fun slot session ->
        List.iter
          (fun (tree, rate) ->
            incr n_trees;
            check_tree ~violations ~loads g slot session tree rate)
          (Solution.trees solution slot))
      sessions;
    let worst = ref 0.0 in
    Graph.iter_edges g (fun e ->
        let load = loads.(e.Graph.id) in
        if e.Graph.capacity > 0.0 then begin
          worst := Float.max !worst (load /. e.Graph.capacity);
          if load > e.Graph.capacity *. (1.0 +. tol) then
            violations :=
              Overload { edge = e.Graph.id; load; capacity = e.Graph.capacity }
              :: !violations
        end
        else if load > 0.0 then begin
          worst := infinity;
          violations :=
            Overload { edge = e.Graph.id; load; capacity = e.Graph.capacity }
            :: !violations
        end);
    {
      violations = List.rev !violations;
      checked_sessions = Array.length sessions;
      checked_trees = !n_trees;
      max_congestion = !worst;
      primal = None;
      dual_bound = None;
    }
end

(* [Error] describing the first difference between [Check.certify] and
   the oracle: the violation multisets, the counts and the bits of
   [max_congestion] must all agree *)
let disagreement g solution =
  let v = Check.certify g solution and r = Reference.certify g solution in
  let sorted l = List.sort compare l in
  let show l =
    String.concat "; "
      (List.map (Format.asprintf "%a" Check.pp_violation) (sorted l))
  in
  if compare (sorted v.Check.violations) (sorted r.Check.violations) <> 0 then
    Some
      (Printf.sprintf "violations differ:\n  certify:   %s\n  reference: %s"
         (show v.Check.violations) (show r.Check.violations))
  else if
    not
      (Int64.equal
         (Int64.bits_of_float v.Check.max_congestion)
         (Int64.bits_of_float r.Check.max_congestion))
  then
    Some
      (Printf.sprintf "max_congestion %h <> reference %h" v.Check.max_congestion
         r.Check.max_congestion)
  else if
    v.Check.checked_trees <> r.Check.checked_trees
    || v.Check.checked_sessions <> r.Check.checked_sessions
  then Some "checked tree or session counts differ"
  else None

(* [Check.certify], after demanding that the oracle agrees *)
let certify_both g solution =
  (match disagreement g solution with
  | Some msg -> Alcotest.failf "Check.certify vs reference: %s" msg
  | None -> ());
  Check.certify g solution

(* --- the randomized certification sweep -------------------------------- *)

let master_seed = Prop.seed_from_env ~default:2026
let cases_per_combo = Prop.count_from_env ~default:3

(* Two case streams per (family, mode), each seeded by its own combo
   index. *)
let property_for algo () =
  let combo = ref 0 in
  List.iter
    (fun family ->
      List.iter
        (fun mode ->
          List.iter
            (fun stream ->
              incr combo;
              (* distinct master seed per combo, derived so combo
                 ordering never aliases case streams *)
              let seed = Prop.case_seed ~seed:master_seed (1000 + !combo) in
              Prop.check
                ~name:
                  (Printf.sprintf "certify %s/%s/%s/%d"
                     (Prop_overlay.algorithm_name algo)
                     (Prop_overlay.family_name family)
                     (match mode with
                     | Overlay.Ip -> "ip"
                     | Overlay.Arbitrary -> "arbitrary")
                     stream)
                ~count:cases_per_combo ~seed
                ~gen:(Prop_overlay.gen ~algo ~family ~mode)
                ~shrink:Prop_overlay.shrink ~print:Prop_overlay.case_to_string
                (fun case ->
                  let differs = ref None in
                  let v =
                    Prop_overlay.solve_case case ~inspect:(fun g solution ->
                        differs := disagreement g solution)
                  in
                  match !differs with
                  | Some msg -> Error ("Check.certify vs reference: " ^ msg)
                  | None ->
                    if Check.ok v then Ok () else Error (verdict_to_string v)))
            [ 1; 2 ])
        [ Overlay.Ip; Overlay.Arbitrary ])
    Prop_overlay.all_families

(* sparsification soundness: strategy x topology family x routing mode,
   seed stream offset 3000 (disjoint from the certification sweep's
   1000).  Specs are swept alongside the generated cases rather than
   encoded in them, keeping the OVERLAY_PROP_CASE replay grammar
   untouched. *)
let sparsify_specs =
  [
    Sparsify.full;
    Sparsify.k_nearest 3;
    Sparsify.random_mix ~random:2 ~nearest:2 ();
    Sparsify.cluster 2;
    Sparsify.k_nearest ~tree_cap:3 4;
  ]

let sparsify_property_for algo () =
  let combo = ref 0 in
  List.iter
    (fun spec ->
      List.iter
        (fun family ->
          List.iter
            (fun mode ->
              incr combo;
              let seed = Prop.case_seed ~seed:master_seed (3000 + !combo) in
              Prop.check
                ~name:
                  (Printf.sprintf "sparsify-sound %s/%s/%s/%s"
                     (Prop_overlay.algorithm_name algo)
                     (Sparsify.to_string spec)
                     (Prop_overlay.family_name family)
                     (match mode with
                     | Overlay.Ip -> "ip"
                     | Overlay.Arbitrary -> "arbitrary"))
                ~count:cases_per_combo ~seed
                ~gen:(Prop_overlay.gen ~algo ~family ~mode)
                ~shrink:Prop_overlay.shrink ~print:Prop_overlay.case_to_string
                (fun case -> Prop_overlay.sparsify_sound case ~spec))
            [ Overlay.Ip; Overlay.Arbitrary ])
        Prop_overlay.all_families)
    sparsify_specs

(* warm-engine consistency: topology family x routing mode per FPTAS
   solver, seed stream offset 4000 (disjoint from the 1000/3000 blocks
   above).  Each case drives the re-solve engine through a
   deterministic churn sequence and demands every accepted state be
   certified and the final objective sit inside the FPTAS guarantee
   band of a from-scratch batch solve. *)
let warm_property_for algo () =
  let combo = ref 0 in
  List.iter
    (fun family ->
      List.iter
        (fun mode ->
          incr combo;
          let seed = Prop.case_seed ~seed:master_seed (4000 + !combo) in
          Prop.check
            ~name:
              (Printf.sprintf "warm-consistent %s/%s/%s"
                 (Prop_overlay.algorithm_name algo)
                 (Prop_overlay.family_name family)
                 (match mode with
                 | Overlay.Ip -> "ip"
                 | Overlay.Arbitrary -> "arbitrary"))
            ~count:cases_per_combo ~seed
            ~gen:(Prop_overlay.gen ~algo ~family ~mode)
            ~shrink:Prop_overlay.shrink ~print:Prop_overlay.case_to_string
            Prop_overlay.warm_consistent)
        [ Overlay.Ip; Overlay.Arbitrary ])
    Prop_overlay.all_families

(* MaxFlow's certificate stop: topology family x routing mode, seed
   stream offset 6000 (disjoint from every block above and below).
   Each case runs a cold and a warm certificate-stopped MaxFlow and
   demands both certify at 1 - eps of their dual bounds. *)
let certificate_stop_property () =
  let combo = ref 0 in
  List.iter
    (fun family ->
      List.iter
        (fun mode ->
          incr combo;
          let seed = Prop.case_seed ~seed:master_seed (6000 + !combo) in
          Prop.check
            ~name:
              (Printf.sprintf "certificate-stop maxflow/%s/%s"
                 (Prop_overlay.family_name family)
                 (match mode with
                 | Overlay.Ip -> "ip"
                 | Overlay.Arbitrary -> "arbitrary"))
            ~count:cases_per_combo ~seed
            ~gen:(Prop_overlay.gen ~algo:Prop_overlay.Maxflow ~family ~mode)
            ~shrink:Prop_overlay.shrink ~print:Prop_overlay.case_to_string
            Prop_overlay.certificate_stop)
        [ Overlay.Ip; Overlay.Arbitrary ])
    Prop_overlay.all_families

(* wire-codec fuzz: seed stream offsets 5000 (round-trip) and 5100
   (mutation/truncation totality), disjoint from the solver blocks
   above.  Frame cases are microseconds each, so these blocks run far
   more cases than the solver sweeps at the same
   OVERLAY_PROP_COUNT. *)
let wire_cases = Int.max (cases_per_combo * 40) 120

let wire_roundtrip_property () =
  Prop.check ~name:"wire round-trip identity" ~count:wire_cases
    ~seed:(Prop.case_seed ~seed:master_seed 5000)
    ~gen:Prop_wire.gen_frame ~shrink:Prop_wire.shrink_frame
    ~print:Prop_wire.frame_to_string Prop_wire.roundtrip

let wire_mutation_property () =
  Prop.check ~name:"wire decode total under mutation" ~count:wire_cases
    ~seed:(Prop.case_seed ~seed:master_seed 5100)
    ~gen:Prop_wire.gen_mutation ~shrink:Prop_wire.shrink_mutation
    ~print:Prop_wire.mutation_to_string Prop_wire.mutation_total

(* OVERLAY_PROP_CASE replay hook: when set, also run exactly that case
   (the property sweep still runs; this pinpoints the reported one). *)
let test_replay_case () =
  match Sys.getenv_opt "OVERLAY_PROP_CASE" with
  | None -> ()
  | Some s -> (
    match Prop_overlay.case_of_string s with
    | Error msg -> Alcotest.failf "OVERLAY_PROP_CASE: %s" msg
    | Ok case ->
      let v = Prop_overlay.solve_case case in
      if not (Check.ok v) then
        Alcotest.failf "replayed case %s:@\n%s"
          (Prop_overlay.case_to_string case)
          (verdict_to_string v))

(* --- negative tests: corrupted solutions must be rejected -------------- *)

let base_case =
  {
    Prop_overlay.algo = Prop_overlay.Maxflow;
    family = Prop_overlay.Waxman;
    mode = Overlay.Ip;
    nodes = 16;
    n_sessions = 2;
    session_size = 4;
    trees_per_session = 2;
    epsilon = 0.15;
    instance_seed = 424242;
  }

let solved_instance () =
  let g, sessions = Prop_overlay.instance base_case in
  let overlays = Array.map (Overlay.create g Overlay.Ip) sessions in
  let r = Max_flow.solve g overlays ~epsilon:base_case.Prop_overlay.epsilon in
  (g, sessions, overlays, r)

(* rebuild a solution, replacing session [slot]'s trees via [f] *)
let rebuild_solution sessions solution ~slot ~f =
  let corrupted = Solution.create sessions in
  Array.iteri
    (fun i _ ->
      List.iter
        (fun (tree, rate) ->
          let tree, rate = if i = slot then f tree rate else (tree, rate) in
          Solution.add corrupted tree rate)
        (Solution.trees solution i))
    sessions;
  corrupted

let test_accepts_honest () =
  let g, _, overlays, r = solved_instance () in
  ignore (certify_both g r.Max_flow.solution);
  let v = Check.certify_max_flow g overlays r in
  checkb
    (Printf.sprintf "honest run certifies (%s)" (verdict_to_string v))
    true (Check.ok v)

let test_rejects_inflated_rate () =
  let g, sessions, _, r = solved_instance () in
  let inflated =
    rebuild_solution sessions r.Max_flow.solution ~slot:0
      ~f:(fun tree rate -> (tree, rate *. 1000.0))
  in
  assert_names ~what:"inflated rate" [ "overload" ] (certify_both g inflated)

let test_rejects_non_spanning () =
  let g, sessions, _, r = solved_instance () in
  (* drop one overlay edge (and its route) from every tree of slot 0 *)
  let corrupted =
    rebuild_solution sessions r.Max_flow.solution ~slot:0 ~f:(fun tree rate ->
        let n = Array.length tree.Otree.pairs in
        let tree' =
          Otree.build ~session_id:tree.Otree.session_id
            ~pairs:(Array.sub tree.Otree.pairs 0 (n - 1))
            ~routes:(Array.sub tree.Otree.routes 0 (n - 1))
        in
        (tree', rate))
  in
  assert_names ~what:"non-spanning tree" [ "not_spanning" ]
    (certify_both g corrupted)

let test_rejects_wrong_session () =
  let g, sessions, _, r = solved_instance () in
  (* relabel session 0's trees as session 1's: Solution files them by
     id, so they land in slot 1 where their routes connect the wrong
     members *)
  let corrupted = Solution.create sessions in
  List.iter
    (fun (tree, rate) ->
      Solution.add corrupted { tree with Otree.session_id = 1 } rate)
    (Solution.trees r.Max_flow.solution 0);
  List.iter
    (fun (tree, rate) -> Solution.add corrupted tree rate)
    (Solution.trees r.Max_flow.solution 1);
  assert_names ~what:"misattributed tree" [ "route_endpoints" ]
    (certify_both g corrupted)

let test_rejects_broken_route () =
  let g, sessions, _, r = solved_instance () in
  (* append a backtracking hop: the walk ends off the destination *)
  let corrupted =
    rebuild_solution sessions r.Max_flow.solution ~slot:0 ~f:(fun tree rate ->
        let routes = Array.copy tree.Otree.routes in
        let rt = routes.(0) in
        let last = rt.Route.edges.(Array.length rt.Route.edges - 1) in
        routes.(0) <- { rt with Route.edges = Array.append rt.Route.edges [| last |] };
        ( Otree.build ~session_id:tree.Otree.session_id ~pairs:tree.Otree.pairs
            ~routes,
          rate ))
  in
  assert_names ~what:"broken route" [ "broken_route" ]
    (certify_both g corrupted)

let test_rejects_usage_tampering () =
  let g, sessions, _, r = solved_instance () in
  let corrupted =
    rebuild_solution sessions r.Max_flow.solution ~slot:0 ~f:(fun tree rate ->
        let usage = Array.copy tree.Otree.usage in
        let e, n = usage.(0) in
        usage.(0) <- (e, n + 1);
        ({ tree with Otree.usage }, rate))
  in
  assert_names ~what:"tampered usage table" [ "usage_mismatch" ]
    (certify_both g corrupted);
  (* a recounted edge the table does not list *)
  let dropped =
    rebuild_solution sessions r.Max_flow.solution ~slot:0 ~f:(fun tree rate ->
        let usage = tree.Otree.usage in
        ( { tree with Otree.usage = Array.sub usage 1 (Array.length usage - 1) },
          rate ))
  in
  assert_names ~what:"usage row dropped" [ "usage_mismatch" ]
    (certify_both g dropped)

let test_rejects_missing_routes () =
  let g, sessions, _, r = solved_instance () in
  (* keep the first route only: every other pair has no realization *)
  let corrupted =
    rebuild_solution sessions r.Max_flow.solution ~slot:0 ~f:(fun tree rate ->
        ({ tree with Otree.routes = Array.sub tree.Otree.routes 0 1 }, rate))
  in
  assert_names ~what:"pairs without routes" [ "broken_route" ]
    (certify_both g corrupted)

(* a route edge id outside the graph is a broken route and a usage
   mismatch, and is never used as an index *)
let test_rejects_edge_id_outside_graph () =
  let g, sessions, _, r = solved_instance () in
  List.iter
    (fun bad ->
      let corrupted =
        rebuild_solution sessions r.Max_flow.solution ~slot:0
          ~f:(fun tree rate ->
            let routes = Array.copy tree.Otree.routes in
            let rt = routes.(0) in
            let edges = Array.copy rt.Route.edges in
            edges.(0) <- bad;
            routes.(0) <- { rt with Route.edges };
            ({ tree with Otree.routes }, rate))
      in
      assert_names
        ~what:(Printf.sprintf "route edge id %d" bad)
        [ "broken_route"; "usage_mismatch" ]
        (certify_both g corrupted))
    [ -1; Graph.n_edges g ]

let test_rejects_usage_row_outside_graph () =
  let g, sessions, _, r = solved_instance () in
  let corrupted =
    rebuild_solution sessions r.Max_flow.solution ~slot:0 ~f:(fun tree rate ->
        ( { tree with
            Otree.usage =
              Array.append tree.Otree.usage [| (Graph.n_edges g, 1) |] },
          rate ))
  in
  assert_names ~what:"usage row outside the graph" [ "usage_mismatch" ]
    (certify_both g corrupted)

let test_rejects_weak_duality_breach () =
  let g, _, overlays, r = solved_instance () in
  (* x3 pushes the primal past the dual bound: the run is (1-2eps)
     optimal, so tripling clears the upper bound with margin *)
  Solution.scale r.Max_flow.solution 3.0;
  ignore (certify_both g r.Max_flow.solution);
  assert_names ~what:"scaled-up solution" [ "weak_duality" ]
    (Check.certify_max_flow g overlays r)

let test_rejects_duality_gap () =
  let g, _, overlays, r = solved_instance () in
  (* x0.5 stays feasible but lands below the (1-2eps)=0.7 factor *)
  Solution.scale r.Max_flow.solution 0.5;
  ignore (certify_both g r.Max_flow.solution);
  assert_names ~what:"scaled-down solution" [ "duality_gap" ]
    (Check.certify_max_flow g overlays r)

let mcf_instance () =
  let g, sessions = Prop_overlay.instance base_case in
  let overlays = Array.map (Overlay.create g Overlay.Ip) sessions in
  let scaling = Max_concurrent_flow.Proportional in
  let r = Max_concurrent_flow.solve g overlays ~epsilon:0.15 ~scaling in
  (g, overlays, scaling, r)

let test_mcf_honest_and_scaling_violations () =
  let g, overlays, scaling, r = mcf_instance () in
  let v = Check.certify_mcf g overlays ~scaling r in
  checkb
    (Printf.sprintf "honest mcf certifies (%s)" (verdict_to_string v))
    true (Check.ok v);
  (* global tampering: not a power-of-two multiple of the derived base *)
  let tampered_all =
    { r with
      Max_concurrent_flow.working_demands =
        Array.map (fun w -> w *. 1.7) r.Max_concurrent_flow.working_demands }
  in
  assert_names ~what:"globally tampered working demands"
    [ "scaling_violation" ]
    (Check.certify_mcf g overlays ~scaling tampered_all);
  (* per-slot tampering: breaks the demand direction itself *)
  let wd = Array.copy r.Max_concurrent_flow.working_demands in
  wd.(1) <- wd.(1) *. 1.5;
  let tampered_one = { r with Max_concurrent_flow.working_demands = wd } in
  assert_names ~what:"per-slot tampered working demand"
    [ "scaling_violation" ]
    (Check.certify_mcf g overlays ~scaling tampered_one)

let test_violation_names_stable () =
  let all =
    [
      (Check.Negative_rate { slot = 0; rate = -1.0 }, "negative_rate");
      ( Check.Wrong_session { slot = 0; tree_session_id = 1; expected = 0 },
        "wrong_session" );
      ( Check.Not_spanning { slot = 0; n_members = 3; detail = "d" },
        "not_spanning" );
      ( Check.Route_endpoints
          { slot = 0; pair = (0, 1); src = 1; dst = 2; expected_src = 3;
            expected_dst = 4 },
        "route_endpoints" );
      (Check.Broken_route { slot = 0; pair = (0, 1) }, "broken_route");
      ( Check.Usage_mismatch { slot = 0; edge = 0; claimed = 1; recomputed = 2 },
        "usage_mismatch" );
      (Check.Overload { edge = 0; load = 2.0; capacity = 1.0 }, "overload");
      (Check.Weak_duality { primal = 2.0; dual_bound = 1.0 }, "weak_duality");
      ( Check.Duality_gap
          { primal = 1.0; dual_bound = 2.0; claimed = 0.9; achieved = 0.5 },
        "duality_gap" );
      ( Check.Scaling_violation
          { slot = 0; expected = 1.0; actual = 2.0; detail = "d" },
        "scaling_violation" );
    ]
  in
  List.iter
    (fun (v, name) ->
      Alcotest.(check string) name name (Check.violation_name v);
      checkb
        (Printf.sprintf "pp %s nonempty" name)
        true
        (String.length (Format.asprintf "%a" Check.pp_violation v) > 0))
    all

(* --- alpha(d): Check's own MST against every spanning tree ------------- *)

(* [Check.min_tree_weight] equals the minimum length over every
   labelled spanning tree of the session ([Prufer.enumerate]) whose
   pairs are all candidates, each tree realized by the overlay
   ([Overlay.tree_of_pairs]: fixed routes in IP mode, shortest paths
   under the lengths in arbitrary mode) and weighed by
   [Otree.weight]. *)
let test_min_tree_weight_enumerated () =
  let rng = Rng.create 9301 in
  List.iter
    (fun (mode, spec, size, seed) ->
      let g, sessions =
        Prop_overlay.instance
          { base_case with
            Prop_overlay.mode; nodes = 18; n_sessions = 1;
            session_size = size; instance_seed = seed }
      in
      let o = Overlay.create ~sparsify:spec g mode sessions.(0) in
      let candidate = Hashtbl.create 16 in
      Array.iter (fun p -> Hashtbl.replace candidate p ()) (Overlay.overlay_pairs o);
      let k = Session.size sessions.(0) in
      let trees = Prufer.enumerate k in
      (* random lengths, then small integers so that many trees tie *)
      List.iter
        (fun draw ->
          let lens = Array.init (Graph.n_edges g) (fun _ -> draw ()) in
          let brute =
            List.fold_left
              (fun acc edges ->
                let pairs =
                  Array.of_list
                    (List.map (fun (a, b) -> (min a b, max a b)) edges)
                in
                if Array.for_all (Hashtbl.mem candidate) pairs then
                  Float.min acc
                    (Otree.weight (Overlay.tree_of_pairs o ~pairs lens) lens)
                else acc)
              infinity trees
          in
          let alpha = Check.min_tree_weight o lens in
          checkb
            (Printf.sprintf "%s %s k=%d: alpha %.17g = enumerated minimum %.17g"
               (match mode with Overlay.Ip -> "ip" | Overlay.Arbitrary -> "arbitrary")
               (Sparsify.to_string spec) k alpha brute)
            true
            (Float.is_finite brute
            && Float.abs (alpha -. brute) <= 1e-12 *. brute))
        [
          (fun () -> 0.1 +. Rng.float rng 10.0);
          (fun () -> float_of_int (1 + Rng.int rng 3));
        ])
    [
      (Overlay.Ip, Sparsify.full, 6, 11);
      (Overlay.Ip, Sparsify.k_nearest 2, 6, 12);
      (Overlay.Ip, Sparsify.full, 4, 13);
      (Overlay.Arbitrary, Sparsify.full, 6, 14);
      (Overlay.Arbitrary, Sparsify.k_nearest 2, 6, 15);
      (Overlay.Arbitrary, Sparsify.k_nearest 1, 5, 16);
    ]

(* --- allocation ------------------------------------------------------------ *)

(* [n_sessions] sessions of [k] members spaced [spacing] apart on a
   path graph of [len] routers, each with [k] trees: the stars centred
   on each member, every overlay edge routed along the path *)
let line_solution ~len ~n_sessions ~k ~spacing =
  let g = Graph.create ~n:len in
  for v = 0 to len - 2 do
    ignore (Graph.add_edge g v (v + 1) ~capacity:1e9)
  done;
  let members = Array.init k (fun i -> i * spacing) in
  let sessions =
    Array.init n_sessions (fun id -> Session.create ~id ~members ~demand:1.0)
  in
  (* the path's edges from member [a] to member [b], in walk order *)
  let route a b =
    let hops = abs (b - a) * spacing in
    Route.make ~src:members.(a) ~dst:members.(b)
      (Array.init hops (fun h ->
           if a < b then (a * spacing) + h else (a * spacing) - 1 - h))
  in
  let sol = Solution.create sessions in
  Array.iter
    (fun s ->
      for c = 0 to k - 1 do
        let leaves = List.filter (fun i -> i <> c) (List.init k Fun.id) in
        let pairs = Array.of_list (List.map (fun i -> (c, i)) leaves) in
        let routes = Array.of_list (List.map (route c) leaves) in
        Solution.add sol
          (Otree.build ~session_id:s.Session.id ~pairs ~routes)
          1.0
      done)
    sessions;
  (g, sol)

(* Words per [Check.certify] call: a workspace sized by the graph and
   the largest session, plus a constant per tree.  Longer routes cost
   no words, and each extra tree costs the same few words. *)
let test_certify_alloc_per_tree () =
  let k = 12 and len = 1200 in
  let words ~n_sessions ~spacing =
    let g, sol = line_solution ~len ~n_sessions ~k ~spacing in
    let v = Check.certify g sol in
    checkb "line solution certifies" true (Check.ok v);
    checki "one tree per star" (n_sessions * k) v.Check.checked_trees;
    Obs.Alloc.measure ~warmup:3 ~iters:50 (fun () ->
        ignore (Sys.opaque_identity (Check.certify g sol)))
  in
  let short = words ~n_sessions:2 ~spacing:1
  and long = words ~n_sessions:2 ~spacing:100
  and more = words ~n_sessions:4 ~spacing:1 in
  let per_tree = (more -. short) /. float_of_int (2 * k) in
  if long <> short then
    Alcotest.failf
      "route length changes certify's allocation: %.1f -> %.1f words" short
      long;
  if per_tree > 12.0 then
    Alcotest.failf "certify allocates %.2f words per tree" per_tree

(* --- Prop engine self-tests -------------------------------------------- *)

let test_case_seed_replay () =
  checki "case 0 uses the master seed" 77 (Prop.case_seed ~seed:77 0);
  checkb "derived seeds differ" true
    (Prop.case_seed ~seed:77 1 <> Prop.case_seed ~seed:77 2);
  checkb "derived seeds nonnegative" true (Prop.case_seed ~seed:77 5 >= 0)

let test_shrinking_converges () =
  let gen = Prop.Gen.int_range 0 10_000 in
  let shrink x = if x > 0 then [ x / 2; x - 1 ] else [] in
  match
    Prop.run ~name:"ge50" ~count:200 ~seed:11 ~gen ~shrink (fun x ->
        if x < 50 then Ok () else Error (Printf.sprintf "%d >= 50" x))
  with
  | Prop.Passed _ -> Alcotest.fail "expected a counterexample"
  | Prop.Failed f ->
    checki "shrinks to the boundary" 50 f.Prop.counterexample;
    checkb "original at least as large" true (f.Prop.original >= 50);
    let report = Prop.report ~name:"ge50" ~print:string_of_int f in
    let contains needle =
      let nl = String.length needle and hl = String.length report in
      let rec at i =
        i + nl <= hl && (String.sub report i nl = needle || at (i + 1))
      in
      at 0
    in
    checkb "report has seed replay line" true
      (contains (Printf.sprintf "OVERLAY_PROP_SEED=%d" f.Prop.case_seed));
    checkb "report has exact-case replay line" true
      (contains "OVERLAY_PROP_CASE='50'")

let test_case_roundtrip () =
  List.iter
    (fun algo ->
      List.iter
        (fun family ->
          List.iter
            (fun mode ->
              let case = Prop_overlay.gen ~algo ~family ~mode (Rng.create 5) in
              match Prop_overlay.case_of_string
                      (Prop_overlay.case_to_string case)
              with
              | Ok case' ->
                Alcotest.(check string)
                  "round-trip"
                  (Prop_overlay.case_to_string case)
                  (Prop_overlay.case_to_string case');
                checkb "round-trip equal" true (case = case')
              | Error msg -> Alcotest.failf "round-trip failed: %s" msg)
            [ Overlay.Ip; Overlay.Arbitrary ])
        Prop_overlay.all_families)
    Prop_overlay.all_algorithms;
  (match Prop_overlay.case_of_string "algo=bogus" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus algo accepted");
  (match Prop_overlay.case_of_string "nodes=twelve" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-numeric field accepted");
  (* jobs is not a case field *)
  match Prop_overlay.case_of_string "algo=maxflow,jobs=2,seed=7" with
  | Error msg ->
    Alcotest.(check string)
      "jobs is an unknown field" "unknown field \"jobs\"" msg
  | Ok _ -> Alcotest.fail "jobs=2 accepted"

let test_shrink_priority () =
  let c =
    { base_case with Prop_overlay.nodes = 20; n_sessions = 3; session_size = 5;
      trees_per_session = 3 }
  in
  match Prop_overlay.shrink c with
  | first :: _ ->
    checkb "node count shrinks first" true
      (first.Prop_overlay.nodes < c.Prop_overlay.nodes)
  | [] -> Alcotest.fail "shrinkable case produced no candidates"

let suite =
  let prop_tests =
    List.map
      (fun algo ->
        Alcotest.test_case
          (Printf.sprintf "property: certify %s across the matrix"
             (Prop_overlay.algorithm_name algo))
          `Slow (property_for algo))
      Prop_overlay.all_algorithms
  in
  let sparsify_tests =
    List.map
      (fun algo ->
        Alcotest.test_case
          (Printf.sprintf "property: sparsify sound for %s"
             (Prop_overlay.algorithm_name algo))
          `Slow (sparsify_property_for algo))
      [ Prop_overlay.Maxflow; Prop_overlay.Mcf ]
  in
  let warm_tests =
    List.map
      (fun algo ->
        Alcotest.test_case
          (Printf.sprintf "property: warm engine consistent for %s"
             (Prop_overlay.algorithm_name algo))
          `Slow (warm_property_for algo))
      [ Prop_overlay.Maxflow; Prop_overlay.Mcf ]
  in
  let wire_tests =
    [
      Alcotest.test_case "property: wire codec round-trip" `Quick
        wire_roundtrip_property;
      Alcotest.test_case "property: wire decode total under mutation" `Quick
        wire_mutation_property;
    ]
  in
  let certificate_tests =
    [
      Alcotest.test_case "property: certificate-stopped maxflow certifies"
        `Slow certificate_stop_property;
    ]
  in
  prop_tests @ sparsify_tests @ warm_tests @ certificate_tests @ wire_tests
  @ [
      Alcotest.test_case "OVERLAY_PROP_CASE replay hook" `Quick
        test_replay_case;
      Alcotest.test_case "honest maxflow run certifies" `Quick
        test_accepts_honest;
      Alcotest.test_case "inflated rate -> overload" `Quick
        test_rejects_inflated_rate;
      Alcotest.test_case "dropped overlay edge -> not_spanning" `Quick
        test_rejects_non_spanning;
      Alcotest.test_case "misattributed tree -> route_endpoints" `Quick
        test_rejects_wrong_session;
      Alcotest.test_case "backtracking route -> broken_route" `Quick
        test_rejects_broken_route;
      Alcotest.test_case "tampered usage -> usage_mismatch" `Quick
        test_rejects_usage_tampering;
      Alcotest.test_case "pairs without routes -> broken_route" `Quick
        test_rejects_missing_routes;
      Alcotest.test_case "edge id outside the graph -> broken_route" `Quick
        test_rejects_edge_id_outside_graph;
      Alcotest.test_case "usage row outside the graph -> usage_mismatch"
        `Quick test_rejects_usage_row_outside_graph;
      Alcotest.test_case "scaled-up solution -> weak_duality" `Quick
        test_rejects_weak_duality_breach;
      Alcotest.test_case "scaled-down solution -> duality_gap" `Quick
        test_rejects_duality_gap;
      Alcotest.test_case "mcf scaling tampering -> scaling_violation" `Quick
        test_mcf_honest_and_scaling_violations;
      Alcotest.test_case "violation names are stable" `Quick
        test_violation_names_stable;
      Alcotest.test_case "alpha(d) = minimum over enumerated trees" `Quick
        test_min_tree_weight_enumerated;
      Alcotest.test_case "certify allocates a constant per tree" `Quick
        test_certify_alloc_per_tree;
      Alcotest.test_case "prop: case-0 seed replays the master" `Quick
        test_case_seed_replay;
      Alcotest.test_case "prop: shrinking converges to the boundary" `Quick
        test_shrinking_converges;
      Alcotest.test_case "prop: case string round-trips" `Quick
        test_case_roundtrip;
      Alcotest.test_case "prop: shrink tries node count first" `Quick
        test_shrink_priority;
    ]
