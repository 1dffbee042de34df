type storage =
  | Dense of Route.t option array array (* slot x slot, upper triangle *)
  | Sparse of {
      tbl : (int, Route.t) Hashtbl.t; (* key = a * k + b, a < b *)
      graph : Graph.t;
      metric : int -> float;
      lock : Mutex.t;
    }

type t = {
  member_list : int array;
  index : (int, int) Hashtbl.t; (* vertex -> member slot *)
  storage : storage;
}

let build_index members =
  let k = Array.length members in
  let index = Hashtbl.create k in
  Array.iteri (fun i v -> Hashtbl.replace index v i) members;
  if Hashtbl.length index <> k then
    invalid_arg "Ip_routing.compute: duplicate members";
  index

let compute_with_metric g ~members ~metric =
  let k = Array.length members in
  let index = build_index members in
  let routes = Array.make_matrix k k None in
  (* one reusable Dijkstra workspace and one length validation for the
     whole table, instead of fresh O(n) state per member *)
  let ws = Dijkstra.workspace ~n:(Graph.n_vertices g) in
  Dijkstra.validate_lengths g ~length:metric;
  for i = 0 to k - 1 do
    let tree =
      Dijkstra.shortest_path_tree_ws ws g ~length:metric ~source:members.(i)
    in
    for j = i + 1 to k - 1 do
      match Dijkstra.path_edges tree members.(j) with
      | None -> failwith "Ip_routing.compute: member pair disconnected"
      | Some edges ->
        (* Keep the route computed from the lower-indexed member so both
           directions agree on one path. *)
        (match routes.(i).(j) with
        | Some _ -> ()
        | None ->
          routes.(i).(j) <-
            Some (Route.make ~src:members.(i) ~dst:members.(j) edges))
    done
  done;
  { member_list = Array.copy members; index; storage = Dense routes }

let compute g ~members =
  compute_with_metric g ~members ~metric:Dijkstra.hop_length

let compute_randomized g rng ~members =
  (* jitter far below 1/(n+1) keeps hop-count order intact while
     randomizing which equal-hop path wins *)
  let n = float_of_int (Graph.n_vertices g + 1) in
  let jitter =
    Array.init (Graph.n_edges g) (fun _ -> Rng.uniform rng /. (n *. n))
  in
  compute_with_metric g ~members ~metric:(fun id -> 1.0 +. jitter.(id))

let compute_pairs g ~members ~pairs =
  let k = Array.length members in
  let index = build_index members in
  let metric = Dijkstra.hop_length in
  let tbl = Hashtbl.create (2 * Array.length pairs) in
  let ws = Dijkstra.workspace ~n:(Graph.n_vertices g) in
  Dijkstra.validate_lengths g ~length:metric;
  (* one shortest-path tree per distinct lower slot: pairs arrive sorted
     lexicographically, so runs of equal [a] share a tree *)
  let cur_src = ref (-1) in
  let cur_tree = ref None in
  Array.iter
    (fun (a, b) ->
      if a < 0 || b <= a || b >= k then
        invalid_arg "Ip_routing.compute_pairs: bad slot pair";
      if a <> !cur_src then begin
        cur_src := a;
        cur_tree :=
          Some
            (Dijkstra.shortest_path_tree_ws ws g ~length:metric
               ~source:members.(a))
      end;
      let tree = Option.get !cur_tree in
      match Dijkstra.path_edges tree members.(b) with
      | None -> failwith "Ip_routing.compute: member pair disconnected"
      | Some edges ->
        if not (Hashtbl.mem tbl ((a * k) + b)) then
          Hashtbl.replace tbl
            ((a * k) + b)
            (Route.make ~src:members.(a) ~dst:members.(b) edges))
    pairs;
  {
    member_list = Array.copy members;
    index;
    storage = Sparse { tbl; graph = g; metric; lock = Mutex.create () };
  }

let slot t v =
  match Hashtbl.find_opt t.index v with
  | Some i -> i
  | None ->
    invalid_arg
      (Printf.sprintf "Ip_routing.route: vertex %d is not a session member" v)

(* On-demand fill for a pair absent from a sparse table: recompute the
   shortest-path tree from the lower slot's member — the same source
   orientation [compute] uses, so the stored route is bit-identical to
   what a dense table would hold.  The lock serializes table mutation
   ([Overlay.with_session] replicas share one table, which may be read
   from several domains). *)
let sparse_route t s ~a ~b =
  let k = Array.length t.member_list in
  let key = (a * k) + b in
  match s with
  | Dense _ -> assert false
  | Sparse { tbl; graph; metric; lock } -> (
    Mutex.lock lock;
    match Hashtbl.find_opt tbl key with
    | Some r ->
      Mutex.unlock lock;
      r
    | None ->
      let result =
        try
          let tree =
            Dijkstra.shortest_path_tree graph ~length:metric
              ~source:t.member_list.(a)
          in
          match Dijkstra.path_edges tree t.member_list.(b) with
          | None -> Error "Ip_routing.route: member pair disconnected"
          | Some edges ->
            let r =
              Route.make ~src:t.member_list.(a) ~dst:t.member_list.(b) edges
            in
            Hashtbl.replace tbl key r;
            Ok r
        with e ->
          Mutex.unlock lock;
          raise e
      in
      Mutex.unlock lock;
      (match result with Ok r -> r | Error msg -> failwith msg))

let route t u v =
  let i = slot t u in
  let j = slot t v in
  if i = j then Route.make ~src:u ~dst:v [||]
  else begin
    let a, b = if i < j then (i, j) else (j, i) in
    let r =
      match t.storage with
      | Dense routes -> (
        match routes.(a).(b) with
        | None -> assert false (* [compute] fills the whole upper triangle *)
        | Some r -> r)
      | Sparse _ as s -> sparse_route t s ~a ~b
    in
    if i < j then r else Route.reverse r
  end

let members t = Array.copy t.member_list

let fold_routes t f init =
  let k = Array.length t.member_list in
  match t.storage with
  | Dense routes ->
    let acc = ref init in
    for i = 0 to k - 1 do
      for j = i + 1 to k - 1 do
        match routes.(i).(j) with
        | Some r -> acc := f !acc r
        | None -> ()
      done
    done;
    !acc
  | Sparse { tbl; lock; _ } ->
    (* snapshot keys under the lock, fold in sorted order so the fold is
       deterministic regardless of hashtable iteration order *)
    Mutex.lock lock;
    let keys = Hashtbl.fold (fun key _ acc -> key :: acc) tbl [] in
    let keys = Array.of_list keys in
    Array.sort Int.compare keys;
    let acc =
      Array.fold_left (fun acc key -> f acc (Hashtbl.find tbl key)) init keys
    in
    Mutex.unlock lock;
    acc

let n_routes t =
  match t.storage with
  | Dense _ ->
    let k = Array.length t.member_list in
    k * (k - 1) / 2
  | Sparse { tbl; lock; _ } ->
    Mutex.lock lock;
    let n = Hashtbl.length tbl in
    Mutex.unlock lock;
    n

let max_hops t = fold_routes t (fun acc r -> max acc (Route.hops r)) 0

let covered_edges t =
  let seen = Hashtbl.create 64 in
  let () =
    fold_routes t
      (fun () r -> Route.iter_edges r (fun id -> Hashtbl.replace seen id ()))
      ()
  in
  let ids = Hashtbl.fold (fun id () acc -> id :: acc) seen [] in
  let arr = Array.of_list ids in
  Array.sort Int.compare arr;
  arr
