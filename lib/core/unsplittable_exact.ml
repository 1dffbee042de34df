type result = {
  objective : float;
  trees : Otree.t array;
  combinations : int;
}

let solve ?(max_combinations = 200_000) graph overlays =
  let k = Array.length overlays in
  if k = 0 then invalid_arg "Unsplittable_exact.solve: no sessions";
  let sessions = Array.map Overlay.session overlays in
  (* enumerate each session's realizable trees once, on fewest-hop
     routes *)
  let lens = Array.make (Graph.n_edges graph) 1.0 in
  let candidates =
    Array.map
      (fun o ->
        let size = Session.size (Overlay.session o) in
        if size > 7 then
          invalid_arg "Unsplittable_exact.solve: session too large to enumerate";
        Array.of_list
          (List.map
             (fun edge_list ->
               Overlay.tree_of_pairs o ~pairs:(Array.of_list edge_list) lens)
             (Prufer.enumerate size)))
      overlays
  in
  let space =
    Array.fold_left (fun acc c -> acc * Array.length c) 1 candidates
  in
  if space > max_combinations then
    invalid_arg
      (Printf.sprintf "Unsplittable_exact.solve: %d combinations exceed limit"
         space);
  let m = Graph.n_edges graph in
  let load = Array.make m 0.0 in
  let apply sign tree demand =
    Otree.iter_usage tree (fun id count ->
        load.(id) <- load.(id) +. (sign *. float_of_int count *. demand))
  in
  let best_f = ref 0.0 in
  let best = Array.map (fun c -> c.(0)) candidates in
  let choice = Array.make k 0 in
  let explored = ref 0 in
  (* congestion of the current joint choice *)
  let objective () =
    let worst = ref 0.0 in
    for id = 0 to m - 1 do
      let c = Graph.capacity graph id in
      if c > 0.0 && load.(id) > 0.0 then worst := Float.max !worst (load.(id) /. c)
      else if c = 0.0 && load.(id) > 0.0 then worst := infinity
    done;
    if !worst = 0.0 then 0.0 else 1.0 /. !worst
  in
  let rec search i =
    if i = k then begin
      incr explored;
      let f = objective () in
      if f > !best_f then begin
        best_f := f;
        Array.iteri (fun j c -> best.(j) <- candidates.(j).(c)) choice
      end
    end
    else
      Array.iteri
        (fun ci tree ->
          choice.(i) <- ci;
          apply 1.0 tree sessions.(i).Session.demand;
          search (i + 1);
          apply (-1.0) tree sessions.(i).Session.demand)
        candidates.(i)
  in
  search 0;
  { objective = !best_f; trees = Array.copy best; combinations = !explored }
