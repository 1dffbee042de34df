(* One session's trees in first-add order: slot [j < count] holds
   [trees.(j)] at rate [rates.(j)], and [index] maps each tree to its
   slot.  The rates live in a float array, whose writes do not box. *)
type session_trees = {
  mutable trees : Otree.t array;
  mutable rates : float array;
  mutable count : int;
  index : int Otree.Tbl.t;
}

type t = {
  session_array : Session.t array;
  slot_of_id : (int, int) Hashtbl.t;
  per_session : session_trees array;
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
    per_session =
      Array.map
        (fun _ ->
          { trees = [||]; rates = [||]; count = 0; index = Otree.Tbl.create 16 })
        sessions;
  }

let sessions t = t.session_array

let check_session t i name =
  if i < 0 || i >= Array.length t.session_array then
    invalid_arg (Printf.sprintf "Solution.%s: bad session id %d" name i)

(* a new tree takes the next slot; [tree] also fills the grown array *)
let append s tree rate =
  let n = s.count in
  if n = Array.length s.trees then begin
    let cap = max 8 (2 * n) in
    let trees = Array.make cap tree and rates = Array.make cap 0.0 in
    Array.blit s.trees 0 trees 0 n;
    Array.blit s.rates 0 rates 0 n;
    s.trees <- trees;
    s.rates <- rates
  end;
  s.trees.(n) <- tree;
  s.rates.(n) <- rate;
  s.count <- n + 1;
  Otree.Tbl.add s.index tree n

let add t tree rate =
  if rate < 0.0 then invalid_arg "Solution.add: negative rate";
  let i =
    match Hashtbl.find t.slot_of_id tree.Otree.session_id with
    | slot -> slot
    | exception Not_found -> invalid_arg "Solution.add: tree from an unknown session"
  in
  if rate > 0.0 then begin
    let s = t.per_session.(i) in
    match Otree.Tbl.find s.index tree with
    | j -> s.rates.(j) <- s.rates.(j) +. rate
    | exception Not_found -> append s tree rate
  end

let scale_session t i factor =
  check_session t i "scale_session";
  if factor < 0.0 then invalid_arg "Solution.scale_session: negative factor";
  let s = t.per_session.(i) in
  for j = 0 to s.count - 1 do
    s.rates.(j) <- s.rates.(j) *. factor
  done

let scale t factor =
  Array.iteri (fun i _ -> scale_session t i factor) t.per_session

let session_rate t i =
  check_session t i "session_rate";
  let s = t.per_session.(i) in
  let acc = ref 0.0 in
  for j = 0 to s.count - 1 do
    acc := !acc +. s.rates.(j)
  done;
  !acc

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

(* session [i]'s (tree, rate) slots with a positive rate, first-add
   order *)
let positive name t i =
  check_session t i name;
  let s = t.per_session.(i) in
  let acc = ref [] in
  for j = s.count - 1 downto 0 do
    if s.rates.(j) > 0.0 then acc := (s.trees.(j), s.rates.(j)) :: !acc
  done;
  !acc

let n_trees t i = List.length (positive "n_trees" t i)
let tree_rates t i = Array.of_list (List.map snd (positive "tree_rates" t i))
let trees t i = positive "trees" t i

let same_entry (ta, ra) (tb, rb) =
  Otree.equal ta tb
  && Int64.equal (Int64.bits_of_float ra) (Int64.bits_of_float rb)

let equal a b =
  let k = Array.length a.per_session in
  k = Array.length b.per_session
  && List.for_all
       (fun i -> List.equal same_entry (trees a i) (trees b i))
       (List.init k Fun.id)

let iter_slots t f =
  Array.iter
    (fun s ->
      for j = 0 to s.count - 1 do
        f s.trees.(j) s.rates.(j)
      done)
    t.per_session

let link_load t g =
  let loads = Array.make (Graph.n_edges g) 0.0 in
  iter_slots t (fun tree rate ->
      Otree.iter_usage tree (fun id count ->
          loads.(id) <- loads.(id) +. (float_of_int count *. rate)));
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
  iter_slots other (add t)

let copy t =
  let fresh = create t.session_array in
  merge_from fresh t;
  fresh
