module Csr = struct
  type t = {
    n : int;
    off : int array;
    dst : int array;
    eid : int array;
  }

  let of_graph g =
    let n = Graph.n_vertices g in
    let off = Array.make (n + 1) 0 in
    for v = 0 to n - 1 do
      let d = ref 0 in
      Graph.iter_neighbors g v (fun _ _ -> incr d);
      off.(v + 1) <- off.(v) + !d
    done;
    let total = off.(n) in
    let dst = Array.make (max total 1) 0 in
    let eid = Array.make (max total 1) 0 in
    (* record the exact iter_neighbors order so flat traversals replay
       the record path decision-for-decision *)
    for v = 0 to n - 1 do
      let c = ref off.(v) in
      Graph.iter_neighbors g v (fun w id ->
          dst.(!c) <- w;
          eid.(!c) <- id;
          incr c)
    done;
    { n; off; dst; eid }
end

module Routes = struct
  type t = {
    off : int array;
    edge : int array;
  }

  let of_routes routes =
    let k = Array.length routes in
    let off = Array.make (k + 1) 0 in
    for oe = 0 to k - 1 do
      off.(oe + 1) <- off.(oe) + Route.hops routes.(oe)
    done;
    let edge = Array.make (max off.(k) 1) 0 in
    for oe = 0 to k - 1 do
      let c = ref off.(oe) in
      Route.iter_edges routes.(oe) (fun id ->
          edge.(!c) <- id;
          incr c)
    done;
    { off; edge }

  (* [@inline]: [Prim.lazy_routes_into] calls it inside its loop *)
  let[@inline] weight t oe lens =
    let acc = ref 0.0 in
    let edge = t.edge in
    (* [off] reads stay checked ([oe] is caller input); the [edge]
       entries between two valid offsets are in range by construction *)
    for i = t.off.(oe) to t.off.(oe + 1) - 1 do
      acc := !acc +. lens.(Array.unsafe_get edge i)
    done;
    !acc
end

module Inc = struct
  type t = {
    off : int array;
    oedge : int array;
    mult : int array;
  }

  let of_incidence inc =
    let m = Incidence.n_edges inc in
    let off = Array.make (m + 1) 0 in
    for e = 0 to m - 1 do
      off.(e + 1) <- off.(e) + Incidence.degree inc e
    done;
    let oedge = Array.make (max off.(m) 1) 0 in
    let mult = Array.make (max off.(m) 1) 0 in
    for e = 0 to m - 1 do
      let c = ref off.(e) in
      Incidence.iter_incident inc e (fun oe n ->
          oedge.(!c) <- oe;
          mult.(!c) <- n;
          incr c)
    done;
    { off; oedge; mult }
end

module Prim = struct
  (* [graph.prim_runs] is shared with [Mst.prim] (Counter.make is
     idempotent by name); each module gives the doc it registers. *)
  let c_prim = Obs.Counter.make ~doc:"eager Prim MST runs" "graph.prim_runs"

  let c_prim_lazy =
    Obs.Counter.make
      ~doc:"lazy-bound Prim MST runs (stale lower bounds consulted)"
      "graph.prim_lazy_runs"

  (* The indexed heap is embedded here rather than taken from
     [Indexed_heap]: without flambda nothing inlines across module
     boundaries, and on the k-member overlay graphs of the FPTAS the
     heap traffic IS the MST cost.  The operations below replicate
     [Indexed_heap.insert]/[decrease]/[remove_min] comparison for
     comparison (strict [<] everywhere), so the pick order — and with
     it the Prim trajectory and its tie-breaks — is identical to
     [Mst.prim]'s.

     Unsafe accesses are confined to the workspace's own arrays and the
     CSR (the workspace is checked against the graph size on every run;
     heap indices are bounded by [size <= n]).  Caller-provided arrays
     ([w], [dirty], [edges]) keep their bounds checks. *)
  type ws = {
    best_edge : int array;
    keys : int array;    (* heap slot -> vertex *)
    prios : float array; (* heap slot -> priority *)
    slots : int array;   (* vertex -> heap slot, or [absent] / [popped] *)
    mutable size : int;
  }

  (* [slots] sentinels: a vertex not yet queued, and one already taken
     into the tree (which also replaces a separate visited table). *)
  let absent = -1
  let popped = -2

  let ws ~n =
    let n = max n 1 in
    {
      best_edge = Array.make n (-1);
      keys = Array.make n (-1);
      prios = Array.make n 0.0;
      slots = Array.make n absent;
      size = 0;
    }

  (* Hole-based sifts: the moving entry is held aside and written once,
     at its final slot.  Each step makes the comparison the swap-based
     sift of [Indexed_heap] makes (the held entry is the one at [!i]
     there), so the heap layout after every operation is the same.
     The heap operations are [@inline]: a call would box the float
     priority of [insert] and spill the Prim loop's registers. *)
  let[@inline] sift_up t i =
    let keys = t.keys and prios = t.prios and slots = t.slots in
    let k = Array.unsafe_get keys i and p = Array.unsafe_get prios i in
    let i = ref i and moving = ref true in
    while !moving && !i > 0 do
      let parent = (!i - 1) / 2 in
      let pp = Array.unsafe_get prios parent in
      if p < pp then begin
        let pk = Array.unsafe_get keys parent in
        Array.unsafe_set keys !i pk;
        Array.unsafe_set prios !i pp;
        Array.unsafe_set slots pk !i;
        i := parent
      end
      else moving := false
    done;
    Array.unsafe_set keys !i k;
    Array.unsafe_set prios !i p;
    Array.unsafe_set slots k !i

  let[@inline] sift_down t i =
    let keys = t.keys and prios = t.prios and slots = t.slots in
    let size = t.size in
    let k = Array.unsafe_get keys i and p = Array.unsafe_get prios i in
    let i = ref i and moving = ref true in
    while !moving do
      let l = (2 * !i) + 1 in
      let r = l + 1 in
      let c = if l < size && Array.unsafe_get prios l < p then l else !i in
      let cp = if c = !i then p else Array.unsafe_get prios c in
      let c = if r < size && Array.unsafe_get prios r < cp then r else c in
      if c = !i then moving := false
      else begin
        let ck = Array.unsafe_get keys c in
        Array.unsafe_set keys !i ck;
        Array.unsafe_set prios !i (Array.unsafe_get prios c);
        Array.unsafe_set slots ck !i;
        i := c
      end
    done;
    Array.unsafe_set keys !i k;
    Array.unsafe_set prios !i p;
    Array.unsafe_set slots k !i

  (* precondition: [key] not in the heap (slot [absent]), [size < n] *)
  let[@inline] insert t key prio =
    let i = t.size in
    Array.unsafe_set t.keys i key;
    Array.unsafe_set t.prios i prio;
    Array.unsafe_set t.slots key i;
    t.size <- i + 1;
    sift_up t i

  (* precondition: [size > 0]; drops the root, restores heap order and
     marks the dropped vertex [popped] *)
  let[@inline] remove_min t =
    let key = Array.unsafe_get t.keys 0 in
    let last = t.size - 1 in
    t.size <- last;
    if last > 0 then begin
      let k = Array.unsafe_get t.keys last in
      Array.unsafe_set t.keys 0 k;
      Array.unsafe_set t.prios 0 (Array.unsafe_get t.prios last);
      Array.unsafe_set t.slots k 0;
      sift_down t 0
    end;
    Array.unsafe_set t.slots key popped

  (* A loop rather than [Array.fill]: on k-member overlays the C call
     costs more than the stores. *)
  let reset ws n =
    if n > Array.length ws.slots then
      invalid_arg "Flat.Prim: workspace smaller than the graph";
    ws.size <- 0;
    for v = 0 to n - 1 do
      Array.unsafe_set ws.best_edge v (-1);
      Array.unsafe_set ws.slots v absent
    done

  (* Each vertex enters the heap once ([absent] -> [insert], queued ->
     decrease-key) and leaves it as [popped], so every pop is a new
     tree vertex. *)
  let into ws csr ~w ~edges =
    Obs.Counter.incr c_prim;
    let n = csr.Csr.n in
    if n > 0 then begin
      reset ws n;
      let off = csr.Csr.off and dst = csr.Csr.dst and eid = csr.Csr.eid in
      let best_edge = ws.best_edge in
      let prios = ws.prios and slots = ws.slots in
      let picked = ref 0 in
      let n_edges = ref 0 in
      insert ws 0 0.0;
      while ws.size > 0 do
        let v = Array.unsafe_get ws.keys 0 in
        remove_min ws;
        incr picked;
        let be = Array.unsafe_get best_edge v in
        if be >= 0 then begin
          edges.(!n_edges) <- be;
          incr n_edges
        end;
        for i = Array.unsafe_get off v to Array.unsafe_get off (v + 1) - 1 do
          let u = Array.unsafe_get dst i in
          let s = Array.unsafe_get slots u in
          if s <> popped then begin
            let id = Array.unsafe_get eid i in
            let len = w.(id) in
            if len < 0.0 then invalid_arg "Mst.prim: negative edge length";
            if s < 0 then begin
              insert ws u len;
              Array.unsafe_set best_edge u id
            end
            else if len < Array.unsafe_get prios s then begin
              (* decrease *)
              Array.unsafe_set prios s len;
              sift_up ws s;
              Array.unsafe_set best_edge u id
            end
          end
        done
      done;
      if !picked <> n then failwith "Mst.prim: graph is disconnected"
    end

  (* [into] with stale lower bounds in [w].  A relaxation first tests
     the stale bound against the current key: a bound that already loses
     implies the exact length loses too, so it is skipped, and an edge
     is refreshed in place only when its bound is promising.  The
     refresh never touches the heap, so [s] stays current, and the
     decisions are [into]'s on the exact lengths. *)
  let lazy_routes_into ws csr ~w ~dirty ~routes ~lens ~edges =
    Obs.Counter.incr c_prim_lazy;
    let n = csr.Csr.n in
    if n = 0 then 0
    else begin
      reset ws n;
      let off = csr.Csr.off and dst = csr.Csr.dst and eid = csr.Csr.eid in
      let best_edge = ws.best_edge in
      let prios = ws.prios and slots = ws.slots in
      let refreshed = ref 0 in
      let picked = ref 0 in
      let n_edges = ref 0 in
      insert ws 0 0.0;
      while ws.size > 0 do
        let v = Array.unsafe_get ws.keys 0 in
        remove_min ws;
        incr picked;
        let be = Array.unsafe_get best_edge v in
        if be >= 0 then begin
          edges.(!n_edges) <- be;
          incr n_edges
        end;
        for i = Array.unsafe_get off v to Array.unsafe_get off (v + 1) - 1 do
          let u = Array.unsafe_get dst i in
          let s = Array.unsafe_get slots u in
          if s <> popped then begin
            let id = Array.unsafe_get eid i in
            let promising = s < 0 || w.(id) < Array.unsafe_get prios s in
            if promising then begin
              if dirty.(id) then begin
                w.(id) <- Routes.weight routes id lens;
                dirty.(id) <- false;
                incr refreshed
              end;
              let len = w.(id) in
              if len < 0.0 then invalid_arg "Mst.prim: negative edge length";
              if s < 0 then begin
                insert ws u len;
                Array.unsafe_set best_edge u id
              end
              else if len < Array.unsafe_get prios s then begin
                Array.unsafe_set prios s len;
                sift_up ws s;
                Array.unsafe_set best_edge u id
              end
            end
          end
        done
      done;
      if !picked <> n then failwith "Mst.prim: graph is disconnected";
      !refreshed
    end
end
