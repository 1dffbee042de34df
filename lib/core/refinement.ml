type config = {
  trees_per_session : int;
  rounds : int;
  sigma : float;
}

let default_config = { trees_per_session = 4; rounds = 8; sigma = 30.0 }

type result = {
  solution : Solution.t;
  rounds_used : int;
  improved : bool;
  initial_objective : float;
  final_objective : float;
}

let improve graph overlays config =
  if config.trees_per_session < 1 then
    invalid_arg "Refinement.improve: trees_per_session < 1";
  if config.rounds < 0 then invalid_arg "Refinement.improve: negative rounds";
  if config.sigma <= 0.0 then invalid_arg "Refinement.improve: sigma <= 0";
  let k = Array.length overlays in
  if k = 0 then invalid_arg "Refinement.improve: no sessions";
  Array.iter
    (fun o ->
      if Overlay.graph o != graph then
        invalid_arg "Refinement.improve: overlay on a different graph")
    overlays;
  let sessions = Array.map Overlay.session overlays in
  let m = Graph.n_edges graph in
  let congestion = Array.make m 0.0 in
  (* d_e = (1+sigma)^(l_e) / c_e, rewritten on every edge [apply]
     touches *)
  let length id =
    let c = Graph.capacity graph id in
    if c <= 0.0 then infinity
    else (1.0 +. config.sigma) ** congestion.(id) /. c
  in
  let lens = Array.init m length in
  let apply sign tree demand =
    Otree.iter_usage tree (fun id count ->
        let c = Graph.capacity graph id in
        if c > 0.0 then begin
          congestion.(id) <-
            Float.max 0.0
              (congestion.(id) +. (sign *. float_of_int count *. demand /. c));
          lens.(id) <- length id
        end)
  in
  (* assignment per session: the budgeted trees, each carrying an equal
     share of the demand *)
  let assignments : Otree.t list array = Array.make k [] in
  let sub_demand i =
    sessions.(i).Session.demand /. float_of_int config.trees_per_session
  in
  let route_session i =
    let trees = ref [] in
    for _ = 1 to config.trees_per_session do
      let tree = Overlay.min_spanning_tree overlays.(i) lens in
      apply 1.0 tree (sub_demand i);
      trees := tree :: !trees
    done;
    assignments.(i) <- !trees
  in
  let unroute_session i =
    List.iter (fun tree -> apply (-1.0) tree (sub_demand i)) assignments.(i);
    assignments.(i) <- []
  in
  (* greedy initial pass, session order as given (online semantics) *)
  for i = 0 to k - 1 do
    route_session i
  done;
  let session_lmax i =
    List.fold_left
      (fun acc tree ->
        let worst = ref acc in
        Otree.iter_usage tree (fun id _ ->
            worst := Float.max !worst congestion.(id));
        !worst)
      0.0 assignments.(i)
  in
  let global_lmax () =
    let worst = ref 0.0 in
    for i = 0 to k - 1 do
      worst := Float.max !worst (session_lmax i)
    done;
    !worst
  in
  let objective () =
    let l = global_lmax () in
    if l > 0.0 then 1.0 /. l else infinity
  in
  let initial_objective = objective () in
  let improved = ref false in
  let rounds_used = ref 0 in
  let continue = ref (config.rounds > 0) in
  while !continue do
    incr rounds_used;
    let before_round = global_lmax () in
    (* visit sessions from worst congestion to best *)
    let order = Array.init k (fun i -> i) in
    Array.sort (fun a b -> compare (session_lmax b) (session_lmax a)) order;
    Array.iter
      (fun i ->
        let old_trees = assignments.(i) in
        let old_lmax = global_lmax () in
        unroute_session i;
        route_session i;
        let new_lmax = global_lmax () in
        if new_lmax >= old_lmax -. 1e-12 then begin
          (* revert: the re-route did not reduce the bottleneck *)
          unroute_session i;
          assignments.(i) <- old_trees;
          List.iter (fun tree -> apply 1.0 tree (sub_demand i)) old_trees
        end
        else improved := true)
      order;
    let after_round = global_lmax () in
    if after_round >= before_round -. 1e-12 || !rounds_used >= config.rounds then
      continue := false
  done;
  let final_objective = objective () in
  (* per-session l^i_max scaling, as the online algorithm *)
  let solution = Solution.create sessions in
  for i = 0 to k - 1 do
    let li = session_lmax i in
    let scale = if li > 0.0 then 1.0 /. li else 1.0 in
    List.iter
      (fun tree -> Solution.add solution tree (sub_demand i *. scale))
      assignments.(i)
  done;
  {
    solution;
    rounds_used = !rounds_used;
    improved = !improved;
    initial_objective;
    final_objective;
  }
