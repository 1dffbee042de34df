type result = {
  solution : Solution.t;
  lmax : float;
  per_session_lmax : float array;
  trees : Otree.t array;
}

let run_name = Obs.Name.intern "online"

let c_runs = Obs.Counter.make ~doc:"Online-MinCongestion runs" "online.runs"

let c_arrivals =
  Obs.Counter.make ~doc:"sessions routed by Online-MinCongestion"
    "online.arrivals"

let solve ?(obs = Obs.Sink.null) graph overlays ~sigma =
  if sigma <= 0.0 then invalid_arg "Online.solve: sigma must be positive";
  let k = Array.length overlays in
  if k = 0 then invalid_arg "Online.solve: no sessions";
  let sessions = Array.map Overlay.session overlays in
  let m = Graph.n_edges graph in
  let lens = Array.make m infinity in
  Graph.iter_edges graph (fun e ->
      if e.Graph.capacity > 0.0 then
        lens.(e.Graph.id) <- sigma /. e.Graph.capacity);
  let congestion = Array.make m 0.0 in
  Obs.Counter.incr c_runs;
  Obs.Sink.emit obs Obs.Run_start ~session:run_name ~a:(float_of_int k)
    ~b:sigma;
  if Obs.Sink.enabled obs then
    Array.iter (fun o -> Overlay.set_sink o obs) overlays;
  let trees =
    Fun.protect
      ~finally:(fun () ->
        if Obs.Sink.enabled obs then Array.iter Overlay.clear_sink overlays)
      (fun () ->
        Array.mapi
          (fun i overlay ->
            Obs.Counter.incr c_arrivals;
            Obs.Sink.emit obs Obs.Iter_start ~session:i
              ~a:(float_of_int (i + 1)) ~b:0.0;
            let tree = Overlay.min_spanning_tree overlay lens in
            let demand = sessions.(i).Session.demand in
            Otree.iter_usage tree (fun id count ->
                let ce = Graph.capacity graph id in
                if ce > 0.0 then begin
                  let unit = float_of_int count *. demand /. ce in
                  lens.(id) <- lens.(id) *. (1.0 +. (sigma *. unit));
                  congestion.(id) <- congestion.(id) +. unit
                end);
            Obs.Sink.emit obs Obs.Iter_end ~session:i
              ~a:(float_of_int (i + 1)) ~b:demand;
            tree)
          overlays)
  in
  (* Congestion indicators are read after all sessions have been routed
     (Table VI lines 8-10). *)
  let per_session_lmax =
    Array.map
      (fun tree ->
        let worst = ref 0.0 in
        Otree.iter_usage tree (fun id _ ->
            worst := Float.max !worst congestion.(id));
        !worst)
      trees
  in
  let lmax = Array.fold_left Float.max 0.0 per_session_lmax in
  let solution = Solution.create sessions in
  Array.iteri
    (fun i tree ->
      let li = per_session_lmax.(i) in
      let scale = if li > 0.0 then 1.0 /. li else 1.0 in
      Solution.add solution tree (sessions.(i).Session.demand *. scale))
    trees;
  if Obs.Sink.enabled obs then begin
    Array.iteri
      (fun slot _ ->
        Obs.Sink.emit obs Obs.Session_rate ~session:slot
          ~a:(Solution.session_rate solution slot)
          ~b:per_session_lmax.(slot))
      sessions;
    Obs.Sink.emit obs Obs.Run_end ~session:run_name ~a:(float_of_int k)
      ~b:lmax
  end;
  { solution; lmax; per_session_lmax; trees }

let scale_demands_for_no_bottleneck graph overlays =
  let sessions = Array.map Overlay.session overlays in
  let k = float_of_int (Array.length sessions) in
  let smax = float_of_int (Session.max_size sessions) in
  let max_demand =
    Array.fold_left (fun acc s -> Float.max acc s.Session.demand) 0.0 sessions
  in
  let min_capacity =
    Graph.fold_edges graph (fun acc e -> Float.min acc e.Graph.capacity) infinity
  in
  if max_demand <= 0.0 || min_capacity = infinity then 1.0
  else min_capacity /. (max_demand *. smax *. 2.0 *. k)
