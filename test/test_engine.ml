(* Warm-started re-solve engine: event handling, certificate gating,
   leave-then-rejoin identity, workspace reuse. *)

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool

let waxman_graph ~seed ~n =
  let rng = Rng.create seed in
  (Waxman.generate rng { Waxman.default_params with n }).Topology.graph

let sessions_on ~seed ~graph ~count ~size =
  let rng = Rng.create seed in
  Session.random_batch rng ~topology_size:(Graph.n_vertices graph) ~count ~size
    ~demand:100.0

let mk_engine ?(solver = Engine.Maxflow) ?(epsilon = 0.05) ~seed () =
  let graph = waxman_graph ~seed ~n:30 in
  let sessions = sessions_on ~seed:(seed + 1) ~graph ~count:3 ~size:5 in
  let config = { Engine.default_config with solver; epsilon } in
  (graph, sessions, Engine.create ~config graph sessions)

let fresh_members ~seed graph ~size =
  let rng = Rng.create seed in
  (Session.random rng ~id:0 ~topology_size:(Graph.n_vertices graph) ~size
     ~demand:1.0)
    .Session.members

let ev at event = { Churn.at; event }

(* from-scratch objective for the engine's current session set, used as
   the reference the warm path must track *)
let cold_objective (t : Engine.t) ~solver ~epsilon =
  let graph = Engine.graph t in
  let sessions = Engine.sessions t in
  let overlays =
    Array.map (fun s -> Overlay.create graph Overlay.Ip s) sessions
  in
  match solver with
  | Engine.Maxflow ->
    let r = Max_flow.solve graph overlays ~epsilon in
    Solution.overall_throughput r.Max_flow.solution
  | Engine.Mcf { variant; scaling } ->
    let r = Max_concurrent_flow.solve ~variant graph overlays ~epsilon ~scaling in
    Solution.concurrent_ratio r.Max_concurrent_flow.solution

let test_initial_solve () =
  let _, _, t = mk_engine ~seed:70 () in
  checkb "has solution" true (Engine.solution t <> None);
  checkb "objective positive" true (Engine.objective t > 0.0);
  let s = Engine.stats t in
  check Alcotest.int "one resolve" 1 s.Engine.resolves;
  check Alcotest.int "initial solve is cold" 1 s.Engine.cold_solves

let event_sequence graph =
  let members = fresh_members ~seed:401 graph ~size:5 in
  [
    ev 1.0 (Churn.Session_join { id = 100; members; demand = 50.0 });
    ev 2.0 (Churn.Demand_change { id = 100; demand = 75.0 });
    ev 3.0 (Churn.Capacity_change { edge = 3; capacity = 77.0 });
    ev 4.0 (Churn.Session_leave { id = 100 });
  ]

let run_events ~solver ~epsilon () =
  let graph, _, t = mk_engine ~solver ~epsilon ~seed:70 () in
  let reports = Engine.replay t (event_sequence graph) in
  check Alcotest.int "one report per event" 4 (List.length reports);
  List.iter
    (fun (r : Engine.report) ->
      checkb "event certified" true r.Engine.certified;
      checkb "objective positive" true (r.Engine.objective > 0.0))
    reports;
  let ks = List.map (fun (r : Engine.report) -> r.Engine.k) reports in
  check (Alcotest.list Alcotest.int) "session counts" [ 4; 4; 4; 3 ] ks;
  (* the final state must agree with a from-scratch solve up to the
     two-sided FPTAS band *)
  let warm_obj = Engine.objective t in
  let cold_obj = cold_objective t ~solver ~epsilon in
  let factor = match solver with Engine.Maxflow -> 2.0 | Engine.Mcf _ -> 3.0 in
  let band = 1.0 -. (factor *. epsilon) -. Check.default_tol in
  checkb "warm within guarantee of cold" true
    (Float.min warm_obj cold_obj /. Float.max warm_obj cold_obj >= band)

let test_events_maxflow () = run_events ~solver:Engine.Maxflow ~epsilon:0.05 ()

let test_events_mcf () =
  run_events
    ~solver:
      (Engine.Mcf
         {
           variant = Max_concurrent_flow.Paper;
           scaling = Max_concurrent_flow.Proportional;
         })
    ~epsilon:0.05 ()

let test_warm_is_used () =
  let graph, _, t = mk_engine ~seed:70 () in
  ignore (Engine.replay t (event_sequence graph));
  let s = Engine.stats t in
  checkb "warm re-solves accepted"
    true (s.Engine.warm_accepted > 0);
  checkb "no cold fallback beyond the initial solve" true
    (s.Engine.cold_solves = 1)

let test_leave_rejoin_identity () =
  let graph, sessions, t = mk_engine ~seed:70 () in
  let obj0 = Engine.objective t in
  let victim = sessions.(1) in
  let r1 =
    Engine.apply t (ev 1.0 (Churn.Session_leave { id = victim.Session.id }))
  in
  checkb "leave certified" true r1.Engine.certified;
  let r2 =
    Engine.apply t
      (ev 2.0
         (Churn.Session_join
            {
              id = victim.Session.id;
              members = victim.Session.members;
              demand = victim.Session.demand;
            }))
  in
  checkb "rejoin certified" true r2.Engine.certified;
  (* identical instance again: the engine's session set matches the
     original ids (rejoined session moved to the back) *)
  let ids t =
    Engine.sessions t |> Array.map (fun s -> s.Session.id) |> Array.to_list
    |> List.sort compare
  in
  check
    (Alcotest.list Alcotest.int)
    "same session ids"
    (Array.to_list sessions |> List.map (fun s -> s.Session.id) |> List.sort compare)
    (ids t);
  ignore graph;
  (* both states carry the (1-2eps) guarantee for the same instance, so
     they agree within the two-sided band *)
  let band = 1.0 -. (2.0 *. 0.05) -. Check.default_tol in
  let obj1 = Engine.objective t in
  checkb "objective recovered within the guarantee band" true
    (Float.min obj0 obj1 /. Float.max obj0 obj1 >= band)

let test_empty_engine () =
  let graph = waxman_graph ~seed:77 ~n:20 in
  let t = Engine.create graph [||] in
  checkb "no solution" true (Engine.solution t = None);
  let members = fresh_members ~seed:402 graph ~size:4 in
  let r =
    Engine.apply t (ev 0.5 (Churn.Session_join { id = 0; members; demand = 5.0 }))
  in
  checkb "first join certified" true r.Engine.certified;
  check Alcotest.int "one session" 1 (Engine.n_sessions t);
  let r2 = Engine.apply t (ev 1.0 (Churn.Session_leave { id = 0 })) in
  check Alcotest.int "back to zero sessions" 0 r2.Engine.k;
  checkb "no solution after last leave" true (Engine.solution t = None);
  (* join again: the kept duals warm-start the re-solve *)
  let r3 =
    Engine.apply t (ev 1.5 (Churn.Session_join { id = 1; members; demand = 5.0 }))
  in
  checkb "rejoin after empty certified" true r3.Engine.certified

let test_bad_events () =
  let graph, sessions, t = mk_engine ~seed:70 () in
  let raises f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  raises (fun () ->
      Engine.apply t
        (ev 1.0
           (Churn.Session_join
              {
                id = sessions.(0).Session.id;
                members = sessions.(0).Session.members;
                demand = 1.0;
              })));
  raises (fun () -> Engine.apply t (ev 1.0 (Churn.Session_leave { id = 999 })));
  raises (fun () ->
      Engine.apply t (ev 1.0 (Churn.Demand_change { id = 999; demand = 1.0 })));
  raises (fun () ->
      Engine.apply t
        (ev 1.0
           (Churn.Capacity_change
              { edge = Graph.n_edges graph; capacity = 1.0 })));
  (* engine state survived the rejections *)
  let r = Engine.resolve t in
  checkb "still solvable" true r.Engine.certified

(* A link cut to capacity 0 and then restored: the most-loaded link of
   the current solution is the hardest cut, since every tree that used
   it must move.  Each report must certify and the cut link must carry
   nothing while it is down. *)
let cut_and_restore ~solver () =
  let graph, _, t = mk_engine ~solver ~seed:70 () in
  let load () =
    match Engine.solution t with
    | Some sol -> Solution.link_load sol graph
    | None -> Alcotest.fail "engine holds no solution"
  in
  let loads = load () in
  let edge = ref 0 in
  Array.iteri (fun e l -> if l > loads.(!edge) then edge := e) loads;
  let edge = !edge in
  let capacity = Graph.capacity graph edge in
  checkb "the cut link carries flow" true (loads.(edge) > 0.0);
  let cut = Engine.apply t (ev 1.0 (Churn.Capacity_change { edge; capacity = 0.0 })) in
  checkb "cut certified" true cut.Engine.certified;
  checkb "objective positive after the cut" true (cut.Engine.objective > 0.0);
  check (Alcotest.float 0.0) "cut link unloaded" 0.0 (load ()).(edge);
  let restore = Engine.apply t (ev 2.0 (Churn.Capacity_change { edge; capacity })) in
  checkb "restore certified" true restore.Engine.certified;
  checkb "objective positive after the restore" true
    (restore.Engine.objective > 0.0)

let test_link_cut_maxflow () = cut_and_restore ~solver:Engine.Maxflow ()

let test_link_cut_mcf () =
  cut_and_restore
    ~solver:
      (Engine.Mcf
         {
           variant = Max_concurrent_flow.Paper;
           scaling = Max_concurrent_flow.Proportional;
         })
    ()

(* Steady-state churn handling must reuse the persistent overlay
   workspaces: a warm demand-change re-solve allocates far less than a
   from-scratch handler that rebuilds overlays and solves cold. *)
let test_workspace_reuse_alloc () =
  let graph, sessions, t = mk_engine ~seed:70 () in
  let id = sessions.(0).Session.id in
  let demand = ref 100.0 in
  let warm_words =
    Obs.Alloc.measure ~warmup:2 ~iters:4 (fun () ->
        demand := (if !demand > 100.0 then 100.0 else 110.0);
        ignore
          (Engine.apply t (ev 0.0 (Churn.Demand_change { id; demand = !demand }))))
  in
  let cold_words =
    Obs.Alloc.measure ~warmup:1 ~iters:2 (fun () ->
        let overlays =
          Array.map (fun s -> Overlay.create graph Overlay.Ip s) sessions
        in
        ignore (Max_flow.solve graph overlays ~epsilon:0.05))
  in
  if not (warm_words < cold_words /. 2.0) then
    Alcotest.failf
      "warm event allocates %.0f minor words vs %.0f for a from-scratch \
       rebuild — workspace reuse broken"
      warm_words cold_words

(* Speed probe on a small instance, asserted on deterministic solver
   iteration counts rather than wall-clock, so a loaded CI runner
   cannot flake it (the wall-clock numbers are hard-gated in
   bench --warm with its own retry discipline).  A warm re-solve's
   augmentation count must undercut a from-scratch solve of the same
   instance: that is the whole point of inheriting the duals. *)
let test_speed_probe () =
  let graph, sessions, t = mk_engine ~seed:70 () in
  let id = sessions.(0).Session.id in
  let stats0 = Engine.stats t in
  let n = 6 in
  let warm_iters = ref 0 and cold_iters = ref 0 in
  for i = 1 to n do
    let demand = 100.0 +. float_of_int (i mod 2) in
    let _ = Engine.apply t (ev 0.0 (Churn.Demand_change { id; demand })) in
    (match Engine.last_run t with
    | Some (Engine.Run_maxflow r) -> warm_iters := !warm_iters + r.Max_flow.iterations
    | Some (Engine.Run_mcf _) | None ->
      Alcotest.fail "probe engine lost its maxflow run");
    let overlays =
      Array.map (fun s -> Overlay.create graph Overlay.Ip s) (Engine.sessions t)
    in
    let cold = Max_flow.solve graph overlays ~epsilon:0.05 in
    cold_iters := !cold_iters + cold.Max_flow.iterations
  done;
  let stats1 = Engine.stats t in
  Printf.printf
    "engine speed probe: warm %d iterations vs cold %d over %d events \
     (%.1fx), %d/%d warm-accepted\n%!"
    !warm_iters !cold_iters n
    (float_of_int !cold_iters /. Float.max (float_of_int !warm_iters) 1.0)
    (stats1.Engine.warm_accepted - stats0.Engine.warm_accepted)
    n;
  checkb "all probe events warm" true
    (stats1.Engine.cold_solves = stats0.Engine.cold_solves);
  checkb "warm events augment strictly less than cold solves" true
    (!warm_iters < !cold_iters)

(* Check's achieved ratio lands once per attempt: histogram
   [engine.rung_achieved_<i>] takes one sample for every event that
   tried rung [i] (attempts > i), and [engine.cold_achieved] one per
   cold solve, the initial solve included *)
let test_rung_achieved_histograms () =
  let hist name =
    match Obs.Registry.find_histogram name with
    | Some h -> h
    | None -> Alcotest.failf "histogram %s is not registered" name
  in
  let cold = hist "engine.cold_achieved" in
  let rungs =
    List.map (fun i -> hist (Printf.sprintf "engine.rung_achieved_%d" i))
      [ 0; 1; 2 ]
  in
  let counts () = List.map Obs.Histogram.count (cold :: rungs) in
  let zeros () =
    List.fold_left
      (fun acc h -> acc + (Obs.Histogram.snapshot h).Obs.Histogram.s_zeros)
      0 (cold :: rungs)
  in
  let before = counts () and zeros0 = zeros () in
  let graph, _, t = mk_engine ~seed:70 () in
  let trace =
    Churn.poisson_trace (Rng.create 74) graph
      {
        Churn.default_config with
        Churn.arrival_rate = 1.5;
        mean_holding_time = 4.0;
        size_max = 6;
        horizon = 8.0;
        demand = 50.0;
      }
      ~first_id:100
    |> Churn.with_perturbations (Rng.create 75) graph ~p_demand:0.3
         ~p_capacity:0.2
  in
  let reports = Engine.replay t trace in
  checkb "trace is non-trivial" true (List.length reports >= 8);
  let delta = List.map2 ( - ) (counts ()) before in
  check Alcotest.int "one cold sample per cold solve"
    (Engine.stats t).Engine.cold_solves (List.hd delta);
  List.iteri
    (fun i d ->
      let tried =
        List.length
          (List.filter (fun (r : Engine.report) -> r.Engine.attempts > i)
             reports)
      in
      check Alcotest.int
        (Printf.sprintf "rung %d: one sample per event with attempts > %d" i i)
        tried d)
    (List.tl delta);
  check Alcotest.int "every verdict carries a positive ratio" zeros0 (zeros ())

let suite =
  [
    Alcotest.test_case "initial cold solve" `Quick test_initial_solve;
    Alcotest.test_case "event sequence certifies (maxflow)" `Quick
      test_events_maxflow;
    Alcotest.test_case "event sequence certifies (mcf)" `Quick test_events_mcf;
    Alcotest.test_case "warm path is taken" `Quick test_warm_is_used;
    Alcotest.test_case "leave then rejoin recovers" `Quick
      test_leave_rejoin_identity;
    Alcotest.test_case "empty engine and first join" `Quick test_empty_engine;
    Alcotest.test_case "invalid events rejected" `Quick test_bad_events;
    Alcotest.test_case "loaded link cut and restored (maxflow)" `Quick
      test_link_cut_maxflow;
    Alcotest.test_case "loaded link cut and restored (mcf)" `Quick
      test_link_cut_mcf;
    Alcotest.test_case "workspace reuse: warm events allocate less" `Quick
      test_workspace_reuse_alloc;
    Alcotest.test_case "speed probe (informational)" `Quick test_speed_probe;
    Alcotest.test_case "achieved ratio per rung and per cold solve" `Quick
      test_rung_achieved_histograms;
  ]
