type snapshot = {
  member_list : int array;
  slot_of : int array;  (* vertex -> member slot, -1 for non-members *)
  routes : Route.t option array array;  (* upper triangle *)
  dists : float array array;
}

(* Reusable snapshot-construction state: a Dijkstra workspace plus the
   dense vertex->slot array and a grow-once member buffer.  The
   arbitrary-routing mode rebuilds a snapshot per MST operation (k
   Dijkstras), so all O(n) scratch state is hoisted out of the
   per-operation path. *)
type workspace = {
  dij : Dijkstra.workspace;
  slots : int array;
  installed : int array;  (* members whose slots are currently set... *)
  mutable n_installed : int;  (* ...living in installed.(0 .. n_installed-1) *)
}

let workspace g =
  let n = Graph.n_vertices g in
  {
    dij = Dijkstra.workspace ~n;
    slots = Array.make (max n 1) (-1);
    (* a member set never exceeds the vertex count (duplicates are
       rejected), so the buffer never needs to grow *)
    installed = Array.make (max n 1) (-1);
    n_installed = 0;
  }

let c_snapshots =
  Obs.Counter.make ~doc:"arbitrary-routing snapshots (k Dijkstras each)"
    "routing.snapshots"

let routes_ws ws g ~members ~length =
  Obs.Counter.incr c_snapshots;
  let k = Array.length members in
  if Array.length ws.slots < Graph.n_vertices g then
    invalid_arg "Dynamic_routing.routes_ws: workspace built for a smaller graph";
  (* clear the previous member set, install the new one *)
  for i = 0 to ws.n_installed - 1 do
    ws.slots.(ws.installed.(i)) <- -1
  done;
  Array.iteri
    (fun i v ->
      if v < 0 || v >= Array.length ws.slots then
        invalid_arg
          (Printf.sprintf "Dynamic_routing.routes: member %d out of range" v);
      if ws.slots.(v) >= 0 then
        invalid_arg "Dynamic_routing.routes: duplicate members";
      ws.slots.(v) <- i)
    members;
  Array.blit members 0 ws.installed 0 k;
  ws.n_installed <- k;
  (* one validation pass for the whole snapshot, not one per source *)
  Dijkstra.validate_lengths g ~length;
  let routes = Array.make_matrix k k None in
  let dists = Array.make_matrix k k 0.0 in
  (* one single-source tree per member, in ascending order; source [i]
     fills row [i] of [routes] and [dists.(i).(j)] / [dists.(j).(i)]
     for [j > i] *)
  for i = 0 to k - 1 do
    let tree =
      Dijkstra.shortest_path_tree_ws ws.dij g ~length ~source:members.(i)
    in
    for j = i + 1 to k - 1 do
      match Dijkstra.path_edges tree members.(j) with
      | None -> failwith "Dynamic_routing.routes: member pair disconnected"
      | Some edges ->
        routes.(i).(j) <- Some (Route.make ~src:members.(i) ~dst:members.(j) edges);
        dists.(i).(j) <- tree.Dijkstra.dist.(members.(j));
        dists.(j).(i) <- dists.(i).(j)
    done
  done;
  (* the snapshot borrows [ws.slots]; it stays correct until the next
     [routes_ws] on the same workspace *)
  { member_list = Array.copy members; slot_of = ws.slots; routes; dists }

let routes g ~members ~length = routes_ws (workspace g) g ~members ~length

let slot s v =
  if v < 0 || v >= Array.length s.slot_of then
    invalid_arg
      (Printf.sprintf "Dynamic_routing: vertex %d outside the snapshot's graph"
         v)
  else
    match s.slot_of.(v) with
    | -1 ->
      invalid_arg
        (Printf.sprintf "Dynamic_routing: vertex %d is not a session member" v)
    | i -> i

let route s u v =
  let i = slot s u and j = slot s v in
  if i = j then Route.make ~src:u ~dst:v [||]
  else begin
    let a, b = if i < j then (i, j) else (j, i) in
    match s.routes.(a).(b) with
    | None -> assert false (* [routes] fills the whole upper triangle *)
    | Some r -> if i < j then r else Route.reverse r
  end

let distance s u v =
  let i = slot s u and j = slot s v in
  s.dists.(i).(j)

let members s = Array.copy s.member_list
