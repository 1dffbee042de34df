type entry = { tree : Otree.t; mutable rate : float }

type t = {
  session_array : Session.t array;
  slot_of_id : (int, int) Hashtbl.t;
  per_session : (string, entry) Hashtbl.t array;
  (* per-session memo of the most recently added entry: a run of
     iterations that keeps the same winning tree (physically, via the
     overlay's Otree memo) skips the table lookup.  Most adds miss it —
     the winner changes between consecutive adds of one session — and
     go through the table, keyed by the tree's cached [Otree.key]. *)
  last : entry option array;
}

let create sessions =
  let slot_of_id = Hashtbl.create (Array.length sessions) in
  Array.iteri
    (fun slot s ->
      if Hashtbl.mem slot_of_id s.Session.id then
        invalid_arg "Solution.create: duplicate session id";
      Hashtbl.replace slot_of_id s.Session.id slot)
    sessions;
  {
    session_array = sessions;
    slot_of_id;
    per_session = Array.map (fun _ -> Hashtbl.create 16) sessions;
    last = Array.map (fun _ -> None) sessions;
  }

let sessions t = t.session_array

let check_session t i name =
  if i < 0 || i >= Array.length t.session_array then
    invalid_arg (Printf.sprintf "Solution.%s: bad session id %d" name i)

let add t tree rate =
  if rate < 0.0 then invalid_arg "Solution.add: negative rate";
  let i =
    match Hashtbl.find_opt t.slot_of_id tree.Otree.session_id with
    | Some slot -> slot
    | None -> invalid_arg "Solution.add: tree from an unknown session"
  in
  if rate > 0.0 then begin
    match t.last.(i) with
    | Some entry when entry.tree == tree -> entry.rate <- entry.rate +. rate
    | _ -> (
      let table = t.per_session.(i) in
      let key = Otree.key tree in
      match Hashtbl.find_opt table key with
      | Some entry ->
        entry.rate <- entry.rate +. rate;
        t.last.(i) <- Some entry
      | None ->
        let entry = { tree; rate } in
        Hashtbl.add table key entry;
        t.last.(i) <- Some entry)
  end

let scale_session t i factor =
  check_session t i "scale_session";
  if factor < 0.0 then invalid_arg "Solution.scale_session: negative factor";
  Hashtbl.iter (fun _ entry -> entry.rate <- entry.rate *. factor) t.per_session.(i)

let scale t factor =
  Array.iteri (fun i _ -> scale_session t i factor) t.per_session

let session_rate t i =
  check_session t i "session_rate";
  Hashtbl.fold (fun _ entry acc -> acc +. entry.rate) t.per_session.(i) 0.0

let rates t = Array.mapi (fun i _ -> session_rate t i) t.session_array

let min_rate t =
  Array.fold_left Float.min infinity (rates t)

let overall_throughput t =
  let acc = ref 0.0 in
  Array.iteri
    (fun i s ->
      acc := !acc +. (float_of_int (Session.receivers s) *. session_rate t i))
    t.session_array;
  !acc

let concurrent_ratio t =
  let r = ref infinity in
  Array.iteri
    (fun i s ->
      r := Float.min !r (session_rate t i /. s.Session.demand))
    t.session_array;
  !r

let n_trees t i =
  check_session t i "n_trees";
  Hashtbl.fold
    (fun _ entry acc -> if entry.rate > 0.0 then acc + 1 else acc)
    t.per_session.(i) 0

let tree_rates t i =
  check_session t i "tree_rates";
  let rates =
    Hashtbl.fold
      (fun _ entry acc -> if entry.rate > 0.0 then entry.rate :: acc else acc)
      t.per_session.(i) []
  in
  Array.of_list rates

let trees t i =
  check_session t i "trees";
  Hashtbl.fold
    (fun _ entry acc ->
      if entry.rate > 0.0 then (entry.tree, entry.rate) :: acc else acc)
    t.per_session.(i) []

let link_load t g =
  let loads = Array.make (Graph.n_edges g) 0.0 in
  Array.iter
    (fun table ->
      Hashtbl.iter
        (fun _ entry ->
          Otree.iter_usage entry.tree (fun id count ->
              loads.(id) <- loads.(id) +. (float_of_int count *. entry.rate)))
        table)
    t.per_session;
  loads

let max_congestion t g =
  let loads = link_load t g in
  let worst = ref 0.0 in
  Graph.iter_edges g (fun e ->
      if e.Graph.capacity > 0.0 then
        worst := Float.max !worst (loads.(e.Graph.id) /. e.Graph.capacity));
  !worst

let is_feasible t g ~tol = max_congestion t g <= 1.0 +. tol

let merge_from t other =
  if Array.length t.per_session <> Array.length other.per_session then
    invalid_arg "Solution.merge_from: session count mismatch";
  Array.iter
    (fun table ->
      Hashtbl.iter (fun _ entry -> add t entry.tree entry.rate) table)
    other.per_session

let copy t =
  let fresh = create t.session_array in
  merge_from fresh t;
  fresh
