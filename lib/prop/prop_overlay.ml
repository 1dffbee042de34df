type algorithm = Maxflow | Mcf | Rounding | Online | Single_tree | Refinement
type family = Waxman | Barabasi | Two_level

let all_algorithms = [ Maxflow; Mcf; Rounding; Online; Single_tree; Refinement ]
let all_families = [ Waxman; Barabasi; Two_level ]

let algorithm_name = function
  | Maxflow -> "maxflow"
  | Mcf -> "mcf"
  | Rounding -> "rounding"
  | Online -> "online"
  | Single_tree -> "single_tree"
  | Refinement -> "refinement"

let family_name = function
  | Waxman -> "waxman"
  | Barabasi -> "barabasi"
  | Two_level -> "two_level"

type case = {
  algo : algorithm;
  family : family;
  mode : Overlay.mode;
  nodes : int;
  n_sessions : int;
  session_size : int;
  trees_per_session : int;
  epsilon : float;
  instance_seed : int;
}

let gen ~algo ~family ~mode rng =
  let open Prop.Gen in
  {
    algo;
    family;
    mode;
    nodes = int_range 10 24 rng;
    n_sessions = int_range 1 3 rng;
    session_size = int_range 3 5 rng;
    trees_per_session = int_range 1 4 rng;
    (* coarse palette, valid for MaxFlow (< 1/2) and MCF (< 1/3) *)
    epsilon = choose [ 0.3; 0.25; 0.15 ] rng;
    instance_seed = int_range 0 999_983 rng;
  }

let shrink c =
  let candidates = ref [] in
  let add c' = candidates := c' :: !candidates in
  if c.trees_per_session > 1 then
    add { c with trees_per_session = c.trees_per_session - 1 };
  if c.session_size > 3 then add { c with session_size = c.session_size - 1 };
  if c.n_sessions > 1 then begin
    add { c with n_sessions = c.n_sessions - 1 };
    if c.n_sessions > 2 then add { c with n_sessions = 1 }
  end;
  if c.nodes > 10 then begin
    add { c with nodes = c.nodes - 1 };
    if c.nodes > 12 then add { c with nodes = max 10 (c.nodes / 2) }
  end;
  (* built back-to-front, so nodes shrinks are tried first *)
  !candidates

let mode_name = function Overlay.Ip -> "ip" | Overlay.Arbitrary -> "arbitrary"

let case_to_string c =
  Printf.sprintf
    "algo=%s,family=%s,mode=%s,nodes=%d,sessions=%d,size=%d,trees=%d,eps=%g,seed=%d"
    (algorithm_name c.algo) (family_name c.family) (mode_name c.mode) c.nodes
    c.n_sessions c.session_size c.trees_per_session c.epsilon c.instance_seed

let case_of_string s =
  let default =
    {
      algo = Maxflow;
      family = Waxman;
      mode = Overlay.Ip;
      nodes = 12;
      n_sessions = 1;
      session_size = 3;
      trees_per_session = 1;
      epsilon = 0.25;
      instance_seed = 0;
    }
  in
  let parse_field acc kv =
    match acc with
    | Error _ -> acc
    | Ok c -> (
      match String.index_opt kv '=' with
      | None -> Error (Printf.sprintf "malformed field %S (expected key=value)" kv)
      | Some i -> (
        let key = String.sub kv 0 i in
        let v = String.sub kv (i + 1) (String.length kv - i - 1) in
        let int_field f =
          match int_of_string_opt v with
          | Some n -> Ok (f n)
          | None -> Error (Printf.sprintf "field %s: %S is not an int" key v)
        in
        match key with
        | "algo" -> (
          match
            List.find_opt (fun a -> algorithm_name a = v) all_algorithms
          with
          | Some a -> Ok { c with algo = a }
          | None -> Error (Printf.sprintf "unknown algo %S" v))
        | "family" -> (
          match List.find_opt (fun f -> family_name f = v) all_families with
          | Some f -> Ok { c with family = f }
          | None -> Error (Printf.sprintf "unknown family %S" v))
        | "mode" -> (
          match v with
          | "ip" -> Ok { c with mode = Overlay.Ip }
          | "arbitrary" -> Ok { c with mode = Overlay.Arbitrary }
          | _ -> Error (Printf.sprintf "unknown mode %S" v))
        | "nodes" -> int_field (fun n -> { c with nodes = n })
        | "sessions" -> int_field (fun n -> { c with n_sessions = n })
        | "size" -> int_field (fun n -> { c with session_size = n })
        | "trees" -> int_field (fun n -> { c with trees_per_session = n })
        | "eps" -> (
          match float_of_string_opt v with
          | Some e -> Ok { c with epsilon = e }
          | None -> Error (Printf.sprintf "field eps: %S is not a float" v))
        | "seed" -> int_field (fun n -> { c with instance_seed = n })
        | _ -> Error (Printf.sprintf "unknown field %S" key)))
  in
  List.fold_left parse_field (Ok default)
    (String.split_on_char ',' (String.trim s))

let instance c =
  let rng = Rng.create c.instance_seed in
  let topo =
    match c.family with
    | Waxman -> Waxman.generate rng { Waxman.default_params with n = c.nodes }
    | Barabasi ->
      Barabasi.generate rng { Barabasi.default_params with n = c.nodes }
    | Two_level ->
      Two_level.generate rng
        (Two_level.small_params ~n_as:2 ~routers_per_as:(max 2 (c.nodes / 2)))
  in
  let g = topo.Topology.graph in
  let n = Graph.n_vertices g in
  let size = min c.session_size n in
  let sessions =
    Array.init c.n_sessions (fun id ->
        Session.random rng ~id ~topology_size:n ~size
          ~demand:(1.0 +. float_of_int id))
  in
  (g, sessions)

let solve_case ?(inspect = fun _ _ -> ()) c =
  let g, sessions = instance c in
  let fresh () = Array.map (Overlay.create g c.mode) sessions in
  match c.algo with
  | Maxflow ->
    let overlays = fresh () in
    let r = Max_flow.solve g overlays ~epsilon:c.epsilon in
    inspect g r.Max_flow.solution;
    Check.certify_max_flow g overlays r
  | Mcf ->
    let overlays = fresh () in
    let scaling =
      if c.instance_seed land 1 = 0 then Max_concurrent_flow.Maxflow_weighted
      else Max_concurrent_flow.Proportional
    in
    let r = Max_concurrent_flow.solve g overlays ~epsilon:c.epsilon ~scaling in
    inspect g r.Max_concurrent_flow.solution;
    Check.certify_mcf g overlays ~scaling r
  | Rounding ->
    let r =
      Max_concurrent_flow.solve g (fresh ()) ~epsilon:c.epsilon
        ~scaling:Max_concurrent_flow.Proportional
    in
    let rounded =
      Random_rounding.round
        (Rng.create (c.instance_seed + 1))
        g
        ~fractional:r.Max_concurrent_flow.solution
        ~trees_per_session:c.trees_per_session
    in
    inspect g rounded.Random_rounding.solution;
    Check.certify g rounded.Random_rounding.solution
  | Online ->
    let r = Online.solve g (fresh ()) ~sigma:20.0 in
    inspect g r.Online.solution;
    Check.certify g r.Online.solution
  | Single_tree ->
    let r = Baseline.single_tree g (fresh ()) in
    inspect g r.Baseline.solution;
    Check.certify g r.Baseline.solution
  | Refinement ->
    let r =
      Refinement.improve g (fresh ())
        {
          Refinement.trees_per_session = c.trees_per_session;
          rounds = 2;
          sigma = 20.0;
        }
    in
    inspect g r.Refinement.solution;
    Check.certify g r.Refinement.solution

(* --- sparsification soundness ----------------------------------------- *)

let check_pruned_connected overlays =
  Array.iteri
    (fun slot o ->
      let k = Session.size (Overlay.session o) in
      let uf = Union_find.create k in
      Array.iter
        (fun (a, b) -> ignore (Union_find.union uf a b))
        (Overlay.overlay_pairs o);
      if k > 0 && Union_find.count uf <> 1 then
        failwith
          (Printf.sprintf
             "session %d: pruned overlay (%d pairs over %d members) is \
              disconnected"
             slot
             (Overlay.n_overlay_edges o)
             k))
    overlays

let sparsify_sound c ~spec =
  let ( let* ) = Result.bind in
  let g, sessions = instance c in
  let overlays = Array.map (Overlay.create ~sparsify:spec g c.mode) sessions in
  let* () =
    match check_pruned_connected overlays with
    | () -> Ok ()
    | exception Failure msg -> Error msg
  in
  let solve overlays =
    match c.algo with
    | Maxflow ->
      let r = Max_flow.solve g overlays ~epsilon:c.epsilon in
      ( r.Max_flow.iterations,
        r.Max_flow.solution,
        Check.certify_max_flow g overlays r )
    | Mcf ->
      let r =
        Max_concurrent_flow.solve g overlays ~epsilon:c.epsilon
          ~scaling:Max_concurrent_flow.Proportional
      in
      ( r.Max_concurrent_flow.phases,
        r.Max_concurrent_flow.solution,
        Check.certify_mcf g overlays ~scaling:Max_concurrent_flow.Proportional
          r )
    | _ -> invalid_arg "Prop_overlay.sparsify_sound: FPTAS algorithms only"
  in
  let iters, solution, verdict = solve overlays in
  let* () =
    if Check.ok verdict then Ok ()
    else
      Error
        (Format.asprintf "pruned run fails certification: %a" Check.pp_verdict
           verdict)
  in
  if not (Sparsify.is_full spec) then Ok ()
  else begin
    (* a full spec must be indistinguishable from a build without one *)
    let plain = Array.map (Overlay.create g c.mode) sessions in
    let iters', solution', _ = solve plain in
    if iters <> iters' then
      Error
        (Printf.sprintf
           "full spec diverges from plain build: %d vs %d iterations" iters
           iters')
    else if not (Solution.equal solution solution') then
      Error "full spec diverges from plain build: tree/rate lists differ"
    else Ok ()
  end

(* --- warm-started engine consistency ----------------------------------- *)

let warm_consistent c =
  let ( let* ) = Result.bind in
  (match c.algo with
  | Maxflow | Mcf -> ()
  | _ -> invalid_arg "Prop_overlay.warm_consistent: FPTAS algorithms only");
  let g, sessions = instance c in
  let n = Graph.n_vertices g in
  let size = min c.session_size n in
  (* event randomness is split from the instance stream so shrinking
     [nodes]/[sessions] does not scramble the churn sequence *)
  let rng = Rng.create (c.instance_seed + 1) in
  let solver =
    match c.algo with
    | Maxflow -> Engine.Maxflow
    | Mcf ->
      (* Paper variant: the Fleischer adaptation can fail its own
         duality certificate even cold (documented in
         test_engine.ml), which would make every run ladder out *)
      Engine.Mcf
        {
          variant = Max_concurrent_flow.Paper;
          scaling = Max_concurrent_flow.Proportional;
        }
    | _ -> assert false
  in
  let config =
    { Engine.default_config with epsilon = c.epsilon; solver; mode = c.mode }
  in
  let t = Engine.create ~config g sessions in
  let join id =
    let s =
      Session.random rng ~id ~topology_size:n ~size
        ~demand:(0.5 +. Rng.float rng 2.0)
    in
    Churn.Session_join
      { id; members = s.Session.members; demand = s.Session.demand }
  in
  let capacity_change () =
    let edge = Rng.int rng (Graph.n_edges g) in
    let factor = 0.6 +. Rng.float rng 0.8 in
    Churn.Capacity_change { edge; capacity = factor *. Graph.capacity g edge }
  in
  (* fresh ids from 1000 up; base sessions keep ids 0 .. k-1.  The
     sequence exercises every repair path: join (new overlay),
     demand change (routing state reused), capacity change (dual
     repair), leave (duals untouched). *)
  let events =
    [
      join 1000;
      Churn.Demand_change
        { id = Rng.int rng c.n_sessions; demand = 0.5 +. Rng.float rng 2.0 };
      capacity_change ();
      join 1001;
      Churn.Session_leave { id = 1000 };
      Churn.Demand_change { id = 1001; demand = 0.5 +. Rng.float rng 2.0 };
    ]
  in
  let* () =
    List.fold_left
      (fun acc (i, event) ->
        let* () = acc in
        let report = Engine.apply t { Churn.at = float_of_int i; event } in
        if report.Engine.certified then Ok ()
        else
          Error
            (Printf.sprintf "event %d (%s) accepted uncertified" i
               (Churn.event_to_string event)))
      (Ok ())
      (List.mapi (fun i e -> (i, e)) events)
  in
  (* the surviving instance — mutated capacities included — must
     match a from-scratch batch solve up to the FPTAS guarantee *)
  let live = Engine.sessions t in
  let overlays = Array.map (Overlay.create g c.mode) live in
  let* cold_obj, factor =
    let checked verdict obj factor =
      if Check.ok verdict then Ok (obj, factor)
      else
        Error
          (Format.asprintf "cold reference fails certification: %a"
             Check.pp_verdict verdict)
    in
    match c.algo with
    | Maxflow ->
      let r = Max_flow.solve g overlays ~epsilon:c.epsilon in
      checked
        (Check.certify_max_flow g overlays r)
        (Solution.overall_throughput r.Max_flow.solution)
        2.0
    | Mcf ->
      let scaling = Max_concurrent_flow.Proportional in
      let r =
        Max_concurrent_flow.solve g overlays ~epsilon:c.epsilon
          ~variant:Max_concurrent_flow.Paper ~scaling
      in
      checked (Check.certify_mcf g overlays ~scaling r)
        (Solution.concurrent_ratio r.Max_concurrent_flow.solution)
        3.0
    | _ -> assert false
  in
  let warm_obj = Engine.objective t in
  let band = 1.0 -. (factor *. c.epsilon) -. Check.default_tol in
  if cold_obj <= 0.0 then
    Error (Printf.sprintf "cold reference objective is %g" cold_obj)
  else if warm_obj < band *. cold_obj then
    Error
      (Printf.sprintf
         "engine objective %g below guarantee band: %g * cold %g" warm_obj
         band cold_obj)
  else Ok ()

(* --- MaxFlow's certificate stop ----------------------------------------- *)

let c_certified_stops = Obs.Counter.make "maxflow.certified_stops"

let certificate_stop c =
  let ( let* ) = Result.bind in
  let g, sessions = instance c in
  let overlays = Array.map (Overlay.create g c.mode) sessions in
  let floor = 1.0 -. c.epsilon -. Check.default_tol in
  (* a run the certificate ended must reach [floor]; one that its
     threshold or room ended first keeps the claimed 1 - 2 eps only *)
  let solve what ?warm_start () =
    let before = Obs.Counter.value c_certified_stops in
    let r =
      Max_flow.solve ~stop:Max_flow.Certificate ?warm_start g overlays
        ~epsilon:c.epsilon
    in
    let by_certificate = Obs.Counter.value c_certified_stops > before in
    let v = Check.certify_max_flow g overlays r in
    match (v.Check.primal, v.Check.dual_bound) with
    | _ when not (Check.ok v) ->
      Error
        (Format.asprintf "%s run fails certification: %a" what
           Check.pp_verdict v)
    | Some primal, Some bound when by_certificate && primal /. bound < floor ->
      Error
        (Printf.sprintf
           "%s run stopped by its certificate achieves %.6f of the dual \
            bound, below 1 - eps"
           what (primal /. bound))
    | _ -> Ok r
  in
  let* cold = solve "cold" () in
  (* warm, as the engine re-solves a capacity change: one edge's
     capacity moves and its dual is repaired by c_old / c_new *)
  let rng = Rng.create (c.instance_seed + 2) in
  let edge = Rng.int rng (Graph.n_edges g) in
  let c_old = Graph.capacity g edge in
  let c_new = (0.6 +. Rng.float rng 0.8) *. c_old in
  Graph.set_capacity g edge c_new;
  let lens = Array.copy cold.Max_flow.dual_lengths in
  lens.(edge) <- lens.(edge) *. (c_old /. c_new);
  let* _ =
    solve "warm"
      ~warm_start:
        {
          Max_flow.prev_lens = lens;
          prev_ln_base = cold.Max_flow.dual_ln_base;
          room = 32.0;
        }
      ()
  in
  Ok ()
