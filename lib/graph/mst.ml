type result = { edges : int array; weight : float }

let c_prim = Obs.Counter.make ~doc:"eager Prim MST runs" "graph.prim_runs"

let c_kruskal = Obs.Counter.make ~doc:"Kruskal MST runs" "graph.kruskal_runs"

let prim g ~length =
  Obs.Counter.incr c_prim;
  let n = Graph.n_vertices g in
  if n = 0 then { edges = [||]; weight = 0.0 }
  else begin
    let in_tree = Array.make n false in
    let best_edge = Array.make n (-1) in
    let heap = Indexed_heap.create n in
    let edges = ref [] in
    let weight = ref 0.0 in
    let picked = ref 0 in
    Indexed_heap.insert heap 0 0.0;
    while not (Indexed_heap.is_empty heap) do
      let v, key = Indexed_heap.pop_min heap in
      if not in_tree.(v) then begin
        in_tree.(v) <- true;
        incr picked;
        if best_edge.(v) >= 0 then begin
          edges := best_edge.(v) :: !edges;
          weight := !weight +. key
        end;
        Graph.iter_neighbors g v (fun w id ->
            if not in_tree.(w) then begin
              let len = length id in
              if len < 0.0 then invalid_arg "Mst.prim: negative edge length";
              let update =
                match Indexed_heap.mem heap w with
                | false -> true
                | true -> len < Indexed_heap.priority heap w
              in
              if update then begin
                Indexed_heap.insert_or_decrease heap w len;
                best_edge.(w) <- id
              end
            end)
      end
    done;
    if !picked <> n then failwith "Mst.prim: graph is disconnected";
    { edges = Array.of_list (List.rev !edges); weight = !weight }
  end

let kruskal g ~length =
  Obs.Counter.incr c_kruskal;
  let n = Graph.n_vertices g in
  if n = 0 then { edges = [||]; weight = 0.0 }
  else begin
    let all = Graph.edges g in
    let order = Array.map (fun e -> e.Graph.id) all in
    Array.sort
      (fun a b ->
        let c = Float.compare (length a) (length b) in
        if c <> 0 then c else Int.compare a b)
      order;
    let uf = Union_find.create n in
    let edges = ref [] in
    let weight = ref 0.0 in
    Array.iter
      (fun id ->
        let u, v = Graph.endpoints g id in
        if Union_find.union uf u v then begin
          edges := id :: !edges;
          weight := !weight +. length id
        end)
      order;
    if Union_find.count uf <> 1 then
      failwith "Mst.kruskal: graph is disconnected";
    { edges = Array.of_list (List.rev !edges); weight = !weight }
  end

let spanning_tree_exists g = Traverse.is_connected g

let tree_weight ~length edges =
  Array.fold_left (fun acc id -> acc +. length id) 0.0 edges

let is_spanning_tree g edges =
  let n = Graph.n_vertices g in
  if Array.length edges <> max 0 (n - 1) then false
  else begin
    let uf = Union_find.create n in
    let acyclic =
      Array.for_all
        (fun id ->
          let u, v = Graph.endpoints g id in
          Union_find.union uf u v)
        edges
    in
    acyclic && Union_find.count uf = 1
  end
