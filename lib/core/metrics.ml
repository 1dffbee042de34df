let link_utilization solution graph ~edges =
  let loads = Solution.link_load solution graph in
  Array.map
    (fun id ->
      let c = Graph.capacity graph id in
      if c > 0.0 then loads.(id) /. c else 0.0)
    edges

let utilization_curve solution graph ~edges =
  Cdf.rank_value (link_utilization solution graph ~edges)

let tree_rate_curve solution slot =
  Cdf.accumulative (Solution.tree_rates solution slot)

let covered_edges overlays =
  let seen = Hashtbl.create 256 in
  Array.iter
    (fun o ->
      Array.iter (fun id -> Hashtbl.replace seen id ()) (Overlay.covered_edges o))
    overlays;
  let ids = Hashtbl.fold (fun id () acc -> id :: acc) seen [] in
  let arr = Array.of_list ids in
  Array.sort compare arr;
  arr

let edges_per_node overlays =
  let covered = covered_edges overlays in
  let members =
    Array.fold_left
      (fun acc o -> acc + Session.size (Overlay.session o))
      0 overlays
  in
  if members = 0 then 0.0
  else float_of_int (Array.length covered) /. float_of_int members

let fairness_index solution = Stats.jain_index (Solution.rates solution)

let throughput_ratio a b =
  let tb = Solution.overall_throughput b in
  if tb <= 0.0 then 0.0 else Solution.overall_throughput a /. tb

let check_mapping name solution ~original_of_slot ~originals =
  if originals < 1 then invalid_arg (Printf.sprintf "Metrics.%s: originals < 1" name);
  let slots = Array.length (Solution.sessions solution) in
  if Array.length original_of_slot <> slots then
    invalid_arg (Printf.sprintf "Metrics.%s: mapping arity mismatch" name);
  Array.iter
    (fun o ->
      if o < 0 || o >= originals then
        invalid_arg (Printf.sprintf "Metrics.%s: mapping out of range" name))
    original_of_slot

let aggregate_replicated_rates solution ~original_of_slot ~originals =
  check_mapping "aggregate_replicated_rates" solution ~original_of_slot ~originals;
  let totals = Array.make originals 0.0 in
  Array.iteri
    (fun slot original ->
      totals.(original) <- totals.(original) +. Solution.session_rate solution slot)
    original_of_slot;
  totals

let aggregate_replicated_trees solution ~original_of_slot ~originals =
  check_mapping "aggregate_replicated_trees" solution ~original_of_slot ~originals;
  let seen = Array.init originals (fun _ -> Otree.Tbl.create 16) in
  Array.iteri
    (fun slot original ->
      List.iter
        (fun (tree, _) ->
          (* [Otree.equal] ignores the differing replica session ids *)
          Otree.Tbl.replace seen.(original) tree ())
        (Solution.trees solution slot))
    original_of_slot;
  Array.map Otree.Tbl.length seen
