type result = { solution : Solution.t; lmax : float }

(* every physical link one unit long: fewest-hop trees *)
let unit_lengths graph = Array.make (Graph.n_edges graph) 1.0

let scale_by_congestion graph sessions assignments =
  (* assignments: per session slot, list of (tree, unscaled rate).
     Compute link congestion, then scale each session by its own worst
     congestion along its trees (the paper's per-commodity l^i_max). *)
  let m = Graph.n_edges graph in
  let congestion = Array.make m 0.0 in
  Array.iter
    (fun trees ->
      List.iter
        (fun (tree, rate) ->
          Otree.iter_usage tree (fun id count ->
              let ce = Graph.capacity graph id in
              if ce > 0.0 then
                congestion.(id) <-
                  congestion.(id) +. (float_of_int count *. rate /. ce)))
        trees)
    assignments;
  let per_session_lmax =
    Array.map
      (fun trees ->
        List.fold_left
          (fun acc (tree, _) ->
            let worst = ref acc in
            Otree.iter_usage tree (fun id _ ->
                worst := Float.max !worst congestion.(id));
            !worst)
          0.0 trees)
      assignments
  in
  let lmax = Array.fold_left Float.max 0.0 per_session_lmax in
  let solution = Solution.create sessions in
  Array.iteri
    (fun i trees ->
      let li = per_session_lmax.(i) in
      let scale = if li > 0.0 then 1.0 /. li else 1.0 in
      List.iter (fun (tree, rate) -> Solution.add solution tree (rate *. scale)) trees)
    assignments;
  { solution; lmax }

let of_assignments graph sessions assignments =
  if Array.length sessions <> Array.length assignments then
    invalid_arg "Baseline.of_assignments: arity mismatch";
  scale_by_congestion graph sessions assignments

let single_tree graph overlays =
  let sessions = Array.map Overlay.session overlays in
  let lens = unit_lengths graph in
  let assignments =
    Array.mapi
      (fun i overlay ->
        let tree = Overlay.min_spanning_tree overlay lens in
        [ (tree, sessions.(i).Session.demand) ])
      overlays
  in
  scale_by_congestion graph sessions assignments

let star_pairs ~size ~center =
  Array.init (size - 1) (fun j ->
      let other = if j < center then j else j + 1 in
      (min center other, max center other))

let interior_disjoint graph overlays ~trees_per_session =
  if trees_per_session < 1 then
    invalid_arg "Baseline.interior_disjoint: trees_per_session < 1";
  let sessions = Array.map Overlay.session overlays in
  let lens = unit_lengths graph in
  let assignments =
    Array.mapi
      (fun i overlay ->
        let size = Session.size sessions.(i) in
        let budget = min trees_per_session size in
        let rate = sessions.(i).Session.demand /. float_of_int budget in
        List.init budget (fun center ->
            let pairs = star_pairs ~size ~center in
            let tree = Overlay.tree_of_pairs overlay ~pairs lens in
            (tree, rate)))
      overlays
  in
  scale_by_congestion graph sessions assignments
