type t = { src : int; dst : int; edges : int array }

let make ~src ~dst edges =
  if src = dst && Array.length edges > 0 then
    invalid_arg "Route.make: nonempty self-route";
  if src <> dst && Array.length edges = 0 then
    invalid_arg "Route.make: empty route between distinct hosts";
  { src; dst; edges }

let hops t = Array.length t.edges

let weight t ~length =
  Array.fold_left (fun acc id -> acc +. length id) 0.0 t.edges

let reverse t =
  let n = Array.length t.edges in
  { src = t.dst; dst = t.src; edges = Array.init n (fun i -> t.edges.(n - 1 - i)) }

let mem t edge_id = Array.exists (fun id -> id = edge_id) t.edges

let iter_edges t f = Array.iter f t.edges

let is_valid g t =
  let edges = t.edges in
  let n = Array.length edges in
  if t.src = t.dst then n = 0
  else begin
    let m = Graph.n_edges g in
    let at = ref t.src and ok = ref true and i = ref 0 in
    while !ok && !i < n do
      let id = edges.(!i) in
      if id < 0 || id >= m then ok := false
      else begin
        let e = Graph.edge g id in
        if e.Graph.u = !at then at := e.Graph.v
        else if e.Graph.v = !at then at := e.Graph.u
        else ok := false
      end;
      incr i
    done;
    !ok && !at = t.dst
  end

let pp fmt t =
  Format.fprintf fmt "%d->%d (%d hops)" t.src t.dst (Array.length t.edges)
