type result = {
  solution : Solution.t;
  lmax : float;
  per_session_lmax : float array;
  distinct_trees : int array;
}

let run_name = Obs.Name.intern "rounding"

let c_rounds =
  Obs.Counter.make ~doc:"Random-MinCongestion rounding passes"
    "rounding.rounds"

let round ?(obs = Obs.Sink.null) rng graph ~fractional ~trees_per_session =
  if trees_per_session < 1 then
    invalid_arg "Random_rounding.round: trees_per_session < 1";
  let sessions = Solution.sessions fractional in
  let k = Array.length sessions in
  let m = Graph.n_edges graph in
  let congestion = Array.make m 0.0 in
  Obs.Counter.incr c_rounds;
  Obs.Sink.emit obs Obs.Run_start ~session:run_name ~a:(float_of_int k)
    ~b:(float_of_int trees_per_session);
  (* chosen.(i) = list of (tree, multiplicity) drawn for session i *)
  let chosen = Array.make k [] in
  Array.iteri
    (fun i session ->
      let trees = Array.of_list (Solution.trees fractional i) in
      if Array.length trees > 0 then begin
        let weights = Array.map snd trees in
        let sub_demand =
          session.Session.demand /. float_of_int trees_per_session
        in
        let counts = Hashtbl.create trees_per_session in
        for _ = 1 to trees_per_session do
          let j = Rng.choose_weighted rng weights in
          let c = try Hashtbl.find counts j with Not_found -> 0 in
          Hashtbl.replace counts j (c + 1)
        done;
        Hashtbl.iter
          (fun j mult ->
            let tree, _ = trees.(j) in
            chosen.(i) <- (tree, mult) :: chosen.(i);
            let load = sub_demand *. float_of_int mult in
            Otree.iter_usage tree (fun id n ->
                let ce = Graph.capacity graph id in
                if ce > 0.0 then
                  congestion.(id) <-
                    congestion.(id) +. (float_of_int n *. load /. ce)))
          counts
      end)
    sessions;
  let per_session_lmax =
    Array.mapi
      (fun i _ ->
        List.fold_left
          (fun acc (tree, _) ->
            let worst = ref acc in
            Otree.iter_usage tree (fun id _ ->
                worst := Float.max !worst congestion.(id));
            !worst)
          0.0 chosen.(i))
      sessions
  in
  let lmax = Array.fold_left Float.max 0.0 per_session_lmax in
  let solution = Solution.create sessions in
  Array.iteri
    (fun i session ->
      let li = per_session_lmax.(i) in
      let scale = if li > 0.0 then 1.0 /. li else 1.0 in
      let sub_demand =
        session.Session.demand /. float_of_int trees_per_session
      in
      List.iter
        (fun (tree, mult) ->
          Solution.add solution tree (sub_demand *. float_of_int mult *. scale))
        chosen.(i))
    sessions;
  let distinct_trees = Array.mapi (fun i _ -> Solution.n_trees solution i) sessions in
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
  { solution; lmax; per_session_lmax; distinct_trees }

let round_average ?(obs = Obs.Sink.null) rng graph ~fractional
    ~trees_per_session ~repeats =
  if repeats < 1 then invalid_arg "Random_rounding.round_average: repeats < 1";
  let sessions = Solution.sessions fractional in
  let k = Array.length sessions in
  let rate_sum = Array.make k 0.0 in
  let tree_sum = Array.make k 0.0 in
  let throughput_sum = ref 0.0 in
  (* One RNG per trial, split off the master: a trial draws only from
     its own stream, so every trial's stream is fixed by its index.
     The float sums accumulate in trial order. *)
  for _ = 1 to repeats do
    let r = round ~obs (Rng.split rng) graph ~fractional ~trees_per_session in
    for i = 0 to k - 1 do
      rate_sum.(i) <- rate_sum.(i) +. Solution.session_rate r.solution i;
      tree_sum.(i) <- tree_sum.(i) +. float_of_int r.distinct_trees.(i)
    done;
    throughput_sum := !throughput_sum +. Solution.overall_throughput r.solution
  done;
  let n = float_of_int repeats in
  ( Array.map (fun s -> s /. n) rate_sum,
    !throughput_sum /. n,
    Array.map (fun s -> s /. n) tree_sum )
