type config = {
  initial_degree : int;
  max_degree : int;
  rounds : int;
  add_threshold : float;
}

let default_config =
  { initial_degree = 3; max_degree = 6; rounds = 20; add_threshold = 0.05 }

type stats = {
  mesh_links : int;
  mean_degree : float;
  links_added : int;
  links_dropped : int;
  tree_depth : int;
}

(* The mesh lives on member slots [0 .. k-1]; hop.(i).(j) is the IP hop
   distance between the members' physical hosts, which plays the role of
   Narada's link latency. *)

type mesh = {
  k : int;
  hop : float array array;
  adjacency : bool array array;
  mutable links : int;
}

let degree mesh u =
  let d = ref 0 in
  for v = 0 to mesh.k - 1 do
    if mesh.adjacency.(u).(v) then incr d
  done;
  !d

(* single-source shortest paths in the mesh; O(k^2) Dijkstra is plenty
   for session-sized graphs *)
let mesh_distances ?extra ?without mesh source =
  let k = mesh.k in
  let connected u v =
    let base = mesh.adjacency.(u).(v) in
    let base =
      match without with
      | Some (a, b) when (u = a && v = b) || (u = b && v = a) -> false
      | _ -> base
    in
    match extra with
    | Some (a, b) when (u = a && v = b) || (u = b && v = a) -> true
    | _ -> base
  in
  let dist = Array.make k infinity in
  let settled = Array.make k false in
  dist.(source) <- 0.0;
  for _ = 1 to k do
    let best = ref (-1) in
    for v = 0 to k - 1 do
      if (not settled.(v)) && (!best < 0 || dist.(v) < dist.(!best)) then best := v
    done;
    let u = !best in
    if u >= 0 && dist.(u) < infinity then begin
      settled.(u) <- true;
      for v = 0 to k - 1 do
        if (not settled.(v)) && connected u v then begin
          let candidate = dist.(u) +. mesh.hop.(u).(v) in
          if candidate < dist.(v) then dist.(v) <- candidate
        end
      done
    end
  done;
  dist

let narada_utility mesh u v =
  (* relative improvement of u's distances when link (u,v) is added *)
  let before = mesh_distances mesh u in
  let after = mesh_distances ~extra:(u, v) mesh u in
  let total = ref 0.0 in
  for w = 0 to mesh.k - 1 do
    if w <> u && before.(w) > 0.0 && before.(w) < infinity then begin
      let gain = (before.(w) -. after.(w)) /. before.(w) in
      if gain > 0.0 then total := !total +. gain
    end
  done;
  !total /. float_of_int (max 1 (mesh.k - 1))

let still_connected_without mesh u v =
  let dist = mesh_distances ~without:(u, v) mesh 0 in
  Array.for_all (fun d -> d < infinity) dist

let build rng graph overlay config =
  if config.initial_degree < 1 then invalid_arg "Mesh_protocol.build: initial_degree";
  if config.max_degree < 2 then invalid_arg "Mesh_protocol.build: max_degree";
  let session = Overlay.session overlay in
  let members = session.Session.members in
  let k = Array.length members in
  (* IP hop distances between members via BFS on the physical graph *)
  let hop = Array.make_matrix k k 0.0 in
  Array.iteri
    (fun i m ->
      let d = Traverse.bfs graph ~source:m in
      Array.iteri
        (fun j m' ->
          if d.(m') < 0 then failwith "Mesh_protocol.build: members disconnected";
          hop.(i).(j) <- float_of_int d.(m'))
        members)
    members;
  let mesh = { k; hop; adjacency = Array.make_matrix k k false; links = 0 } in
  let connect u v =
    if u <> v && not mesh.adjacency.(u).(v) then begin
      mesh.adjacency.(u).(v) <- true;
      mesh.adjacency.(v).(u) <- true;
      mesh.links <- mesh.links + 1
    end
  in
  let disconnect u v =
    if mesh.adjacency.(u).(v) then begin
      mesh.adjacency.(u).(v) <- false;
      mesh.adjacency.(v).(u) <- false;
      mesh.links <- mesh.links - 1
    end
  in
  (* bootstrap: a ring (guarantees connectivity) plus random links up to
     the initial degree *)
  for i = 0 to k - 1 do
    connect i ((i + 1) mod k)
  done;
  for i = 0 to k - 1 do
    let guard = ref (4 * k) in
    while degree mesh i < config.initial_degree && !guard > 0 do
      decr guard;
      let j = Rng.int rng k in
      if j <> i && degree mesh j < config.max_degree then connect i j
    done
  done;
  let links_added = ref 0 and links_dropped = ref 0 in
  for _ = 1 to config.rounds do
    for u = 0 to k - 1 do
      (* probe a random non-neighbor *)
      let v = Rng.int rng k in
      if v <> u && not mesh.adjacency.(u).(v) then begin
        if
          degree mesh u < config.max_degree
          && degree mesh v < config.max_degree
          && narada_utility mesh u v >= config.add_threshold
        then begin
          connect u v;
          incr links_added
        end
      end;
      (* shed the least useful link when over the degree cap *)
      if degree mesh u > config.max_degree then begin
        let worst = ref (-1) in
        let worst_utility = ref infinity in
        for w = 0 to k - 1 do
          if mesh.adjacency.(u).(w) && still_connected_without mesh u w then begin
            (* consensus cost of dropping = utility the link provides *)
            disconnect u w;
            let u_without = narada_utility mesh u w in
            connect u w;
            if u_without < !worst_utility then begin
              worst_utility := u_without;
              worst := w
            end
          end
        done;
        if !worst >= 0 then begin
          disconnect u !worst;
          incr links_dropped
        end
      end
    done
  done;
  (* delivery tree: source-rooted shortest-path tree of the mesh *)
  let parent = Array.make k (-1) in
  let dist = Array.make k infinity in
  let settled = Array.make k false in
  dist.(0) <- 0.0;
  for _ = 1 to k do
    let best = ref (-1) in
    for v = 0 to k - 1 do
      if (not settled.(v)) && (!best < 0 || dist.(v) < dist.(!best)) then best := v
    done;
    let u = !best in
    if u >= 0 && dist.(u) < infinity then begin
      settled.(u) <- true;
      for v = 0 to k - 1 do
        if (not settled.(v)) && mesh.adjacency.(u).(v) then begin
          let candidate = dist.(u) +. hop.(u).(v) in
          if candidate < dist.(v) then begin
            dist.(v) <- candidate;
            parent.(v) <- u
          end
        end
      done
    end
  done;
  let pairs = ref [] in
  let depth = ref 0 in
  for v = 1 to k - 1 do
    if parent.(v) < 0 then failwith "Mesh_protocol.build: mesh disconnected";
    pairs := (parent.(v), v) :: !pairs;
    (* overlay-hop depth of v *)
    let rec hops v acc = if v = 0 then acc else hops parent.(v) (acc + 1) in
    depth := max !depth (hops v 0)
  done;
  let tree =
    Overlay.tree_of_pairs overlay ~pairs:(Array.of_list !pairs)
      (Array.make (Graph.n_edges graph) 1.0)
  in
  let total_degree = ref 0 in
  for v = 0 to k - 1 do
    total_degree := !total_degree + degree mesh v
  done;
  ( tree,
    {
      mesh_links = mesh.links;
      mean_degree = float_of_int !total_degree /. float_of_int k;
      links_added = !links_added;
      links_dropped = !links_dropped;
      tree_depth = !depth;
    } )

let solve rng graph overlays config =
  let sessions = Array.map Overlay.session overlays in
  let assignments =
    Array.mapi
      (fun i overlay ->
        let tree, _ = build rng graph overlay config in
        [ (tree, sessions.(i).Session.demand) ])
      overlays
  in
  Baseline.of_assignments graph sessions assignments
