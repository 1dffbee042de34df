(* Certified from-scratch cold solves of the instance the daemon held
   at fixed checkpoints.  The instance is rebuilt from the events the
   client sent, exactly as [Engine.apply] mutates it: sessions in join
   order, a leave removes in place, a demand change keeps the routing
   state, a capacity change writes the graph. *)

type checkpoint = {
  index : int;  (** timed events applied, 1-based *)
  daemon : float;  (** objective the daemon reported after that event *)
  cold : float;  (** objective of a cold solve of the same instance *)
  certified : bool;  (** the cold solve passed [Check] *)
}

let cold_solve (config : Engine.config) graph overlays =
  let epsilon = config.Engine.epsilon and tol = config.Engine.certify_tol in
  match config.Engine.solver with
  | Engine.Maxflow ->
    let r = Max_flow.solve graph overlays ~epsilon in
    ( Solution.overall_throughput r.Max_flow.solution,
      Check.ok (Check.certify_max_flow ~tol graph overlays r) )
  | Engine.Mcf { variant; scaling } ->
    let r = Max_concurrent_flow.solve ~variant graph overlays ~epsilon ~scaling in
    ( Solution.concurrent_ratio r.Max_concurrent_flow.solution,
      Check.ok (Check.certify_mcf ~tol graph overlays ~scaling r) )

(* [checkpoints w ~setup ~timed ~objectives ~at] walks the set-up events
   then the timed ones, and cold-solves after each timed index in [at]. *)
let checkpoints (w : Workloads.t) ~setup ~timed ~objectives ~at =
  let config = Workloads.engine_config w in
  let graph = Workloads.graph w in
  let build s =
    Overlay.create ~sparsify:config.Engine.sparsify graph config.Engine.mode s
  in
  (* (session, overlay) in the engine's order *)
  let active = ref [] in
  let apply (te : Churn.timed) =
    match te.Churn.event with
    | Churn.Session_join { id; members; demand } ->
      let s = Session.create ~id ~members ~demand in
      active := !active @ [ (s, build s) ]
    | Churn.Session_leave { id } ->
      active := List.filter (fun (s, _) -> s.Session.id <> id) !active
    | Churn.Demand_change { id; demand } ->
      active :=
        List.map
          (fun (s, o) ->
            if s.Session.id = id then begin
              let s' = Session.create ~id ~members:s.Session.members ~demand in
              (s', Overlay.with_session o s')
            end
            else (s, o))
          !active
    | Churn.Capacity_change { edge; capacity } ->
      Graph.set_capacity graph edge capacity
  in
  List.iter apply setup;
  List.concat
    (List.mapi
       (fun i te ->
         apply te;
         if List.mem (i + 1) at then begin
           let overlays = Array.of_list (List.map snd !active) in
           let cold, certified = cold_solve config graph overlays in
           [ { index = i + 1; daemon = objectives.(i); cold; certified } ]
         end
         else [])
       timed)
