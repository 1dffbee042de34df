type mode = Ip | Arbitrary

(* Incremental overlay-length engine (IP mode).  Two states:
   - off: every MST call folds the caller's [length] closure over every
     route ([Route.weight]) and runs the eager [Flat.Prim.into];
   - on (between [begin_incremental] and [end_incremental]): the
     solver's length array is bound, weights are cached, and Prim runs
     lazily over stale lower bounds ([Flat.Prim.lazy_routes_into]).

   Invariant while on: for every overlay edge [oe] with [dirty.(oe) =
   false] and [all_dirty = false], [cached_w.(oe)] is the sum of
   [lens] over route [oe], left to right.  Length changes are announced
   through [notify_length_update]; the incidence index maps the changed
   physical edge to the overlay edges whose cached weight it
   invalidates.  Every refresh sums the same edges in the same operand
   order as [Route.weight]'s fold, so cached weights are bit-identical
   to a from-scratch recomputation and a Prim run over them returns the
   tree a fresh overlay would.  The monotone skip below is weight-exact,
   not tree-exact: it returns the previous tree, which has the minimum
   weight, where a fresh Prim may break a tie differently. *)
type ip_engine = {
  table : Ip_routing.t;
  oroutes : Route.t array;     (* overlay edge id -> fixed route (slot a < b) *)
  incidence : Incidence.t;     (* physical edge -> incident overlay edges *)
  froutes : Flat.Routes.t;     (* flat view of [oroutes] (CSR edge lists) *)
  finc : Flat.Inc.t;           (* flat view of [incidence] *)
  cached_w : float array;      (* overlay edge id -> cached Route.weight *)
  dirty : bool array;
  (* Otree memo: overlay edge ids of the last built tree (in Prim pick
     order, -1-filled when empty) and the tree itself.  Routes are fixed
     in IP mode, so an identical edge sequence implies an identical
     tree — the memo returns the previous [Otree.t] physically,
     making repeated-winner iterations allocation-free. *)
  memo_oedges : int array;
  mutable memo_tree : Otree.t option;
  (* Bounded cache of every winner tree seen, keyed by its overlay edge
     sequence (the scratch [tree_buf] probes it without copying): the
     FPTAS winner oscillates among a small set of trees as duals climb,
     and a hit turns a change-of-winner iteration back into a lookup
     instead of a tree build.  Reset wholesale past [memo_cap]. *)
  memo_tbl : (int array, Otree.t) Hashtbl.t;
  (* Construction scratch for memo misses, per overlay value: overlay
     edge ids drained in ascending order, and the route-edge counts of
     [Otree.build_sorted]. *)
  oedge_order : Bitset.t;
  tree_scratch : Otree.scratch;
  (* The solver's dual lengths, bound by [begin_incremental]: the
     [length] closure of every MST call reads this array, so the
     refresh reads it directly.  [[||]] while the engine is off. *)
  mutable lens : float array;
  mutable all_dirty : bool;
  mutable incremental : bool;  (* engine on: lengths bound, caller notifies *)
  (* Monotone fast path: when every stale weight comes from a length
     {e increase} (the only update the Garg-Koenemann solvers perform
     between rescales), an increase on an overlay edge outside the
     current MST leaves that tree minimum (cycle property), so the
     refresh and the Prim run are skipped entirely until some MST edge
     goes dirty.  The tree returned is then the previous one, which is
     not always the one a fresh Prim would pick among equal-weight
     trees.  [skip_valid] drops to false on a generic (possibly
     decreasing) update. *)
  mutable skip_valid : bool;
  mutable prev_tree : Otree.t option;  (* tree of the last Prim run *)
  in_prev_mst : bool array;            (* overlay edge -> in prev_tree *)
}

type t = {
  session : Session.t;
  graph : Graph.t;
  mode : mode;
  sparsify : Sparsify.t;               (* spec the overlay was built under *)
  ip : ip_engine option;                       (* Some iff mode = Ip *)
  dyn_ws : Dynamic_routing.workspace option;   (* Some iff mode = Arbitrary *)
  pair_of_oedge : (int * int) array;   (* overlay edge id -> member slots *)
  ocsr : Flat.Csr.t;                   (* overlay graph (complete iff full) *)
  prim_ws : Flat.Prim.ws;              (* reusable Prim working set *)
  tree_buf : int array;                (* k-1 scratch: Prim output buffer *)
  mutable ops : int;
  mutable weight_ops : int;
  mutable sink : Obs.Sink.t;           (* trace destination; null by default *)
}


(* Debug cross-check: every incremental MST recomputes all weights from
   scratch and fails loudly on any divergence from the cache.  Routed
   through Obs.Debug_flags so the toggle is discoverable alongside every
   other debug switch. *)
let cross_check_flag =
  Obs.Debug_flags.register ~env:"OVERLAY_CROSS_CHECK"
    ~doc:
      "re-derive all overlay edge weights on every incremental MST call and \
       fail on any divergence from the cache (disables the lazy paths); \
       rebuild every new IP tree with Otree.build and fail on any difference"
    "overlay.cross_check"

let cross_check () = Obs.Debug_flags.enabled cross_check_flag
let set_cross_check enabled = Obs.Debug_flags.set cross_check_flag enabled
let cross_check_enabled = cross_check

(* Registry counters: process-wide tallies mirroring the per-instance
   counters below, so benches and traces can read solver cost without
   holding the overlay values. *)
let c_mst_ops =
  Obs.Counter.make ~doc:"Overlay.min_spanning_tree calls (the paper's runtime metric)"
    "overlay.mst_ops"

let c_weight_ops =
  Obs.Counter.make
    ~doc:"per-overlay-edge weight computations (route re-walks / snapshot reads)"
    "overlay.weight_ops"

let c_lazy_skips =
  Obs.Counter.make
    ~doc:"MST calls answered from the previous tree without running Prim"
    "overlay.mst_lazy_skips"

let c_recomputes =
  Obs.Counter.make ~doc:"MST calls that ran Prim" "overlay.mst_recomputes"

let c_tree_builds =
  Obs.Counter.make
    ~doc:
      "Otree values constructed (IP memo misses, arbitrary and tree_of_pairs \
       builds)"
    "overlay.tree_builds"

(* every [Otree.t] this module constructs goes through here *)
let build_tree t ~pairs ~routes =
  Obs.Counter.incr c_tree_builds;
  Otree.build ~session_id:t.session.Session.id ~pairs ~routes

let build_complete k =
  let g = Graph.create ~n:k in
  let pairs = ref [] in
  for a = 0 to k - 1 do
    for b = a + 1 to k - 1 do
      ignore (Graph.add_edge g a b ~capacity:1.0);
      pairs := (a, b) :: !pairs
    done
  done;
  (g, Array.of_list (List.rev !pairs))

(* Sparsified counterpart of [build_complete]: the overlay graph over
   the kept pairs only.  Pairs arrive lexicographically sorted from
   [Sparsify.select], so overlay edge id = pair index, exactly as in the
   complete case — everything downstream (CSR, incidence, flat kernels)
   is oblivious to the pruning. *)
let build_from_pairs k pairs =
  let g = Graph.create ~n:k in
  Array.iter (fun (a, b) -> ignore (Graph.add_edge g a b ~capacity:1.0)) pairs;
  g

(* Latency rows for [Sparsify.select]: one hop-metric Dijkstra from the
   requested member, distances gathered into a reusable slot-indexed
   buffer (valid until the next call, per the [row] contract).  Both
   routing modes select on IP hop latency — for Arbitrary mode it is a
   selection heuristic only; the solver still prices trees under its own
   dual lengths. *)
let sparsify_pairs spec graph session =
  let members = session.Session.members in
  let k = Array.length members in
  let ws = Dijkstra.workspace ~n:(Graph.n_vertices graph) in
  let buf = Array.make k 0.0 in
  let row i =
    let tree =
      Dijkstra.shortest_path_tree_ws ws graph ~length:Dijkstra.hop_length
        ~source:members.(i)
    in
    for j = 0 to k - 1 do
      buf.(j) <- tree.Dijkstra.dist.(members.(j))
    done;
    buf
  in
  Sparsify.select spec ~k ~salt:session.Session.id ~row

(* Stores overlay edge [oe]'s weight into the cache.  With the engine
   on, the route is summed over the bound array here, over the same
   edges in the same left-to-right order as [Flat.Routes.weight]
   (bit-identical): that function's float result would be boxed on its
   way across the module boundary, once per refreshed edge.  With the
   engine off, the closure is folded. *)
let refresh_one eng ~length oe =
  if eng.incremental then begin
    let lens = eng.lens in
    let off = eng.froutes.Flat.Routes.off
    and edge = eng.froutes.Flat.Routes.edge in
    let acc = ref 0.0 in
    for i = off.(oe) to off.(oe + 1) - 1 do
      acc := !acc +. lens.(edge.(i))
    done;
    eng.cached_w.(oe) <- !acc
  end
  else eng.cached_w.(oe) <- Route.weight eng.oroutes.(oe) ~length;
  eng.dirty.(oe) <- false

let create ?(sparsify = Sparsify.full) graph mode session =
  let members = session.Session.members in
  if not (Traverse.is_spanning_connected graph ~vertices:members) then
    failwith "Overlay.create: session members are disconnected";
  (* [is_full] short-circuits onto the historical complete-overlay path:
     complete pair set, dense route table — bit-identical to a build
     without a spec. *)
  let overlay_graph, pair_of_oedge =
    if Sparsify.is_full sparsify then build_complete (Array.length members)
    else begin
      let pairs = sparsify_pairs sparsify graph session in
      (build_from_pairs (Array.length members) pairs, pairs)
    end
  in
  let ip =
    match mode with
    | Arbitrary -> None
    | Ip ->
      let table =
        if Sparsify.is_full sparsify then Ip_routing.compute graph ~members
        else Ip_routing.compute_pairs graph ~members ~pairs:pair_of_oedge
      in
      let oroutes =
        Array.map
          (fun (a, b) -> Ip_routing.route table members.(a) members.(b))
          pair_of_oedge
      in
      let incidence = Incidence.build ~n_edges:(Graph.n_edges graph) oroutes in
      Some
        {
          table;
          oroutes;
          incidence;
          froutes = Flat.Routes.of_routes oroutes;
          finc = Flat.Inc.of_incidence incidence;
          cached_w = Array.make (Array.length pair_of_oedge) 0.0;
          dirty = Array.make (Array.length pair_of_oedge) true;
          memo_oedges = Array.make (Array.length pair_of_oedge) (-1);
          memo_tree = None;
          memo_tbl = Hashtbl.create 64;
          oedge_order = Bitset.create (Array.length pair_of_oedge);
          tree_scratch = Otree.scratch ~n_edges:(Graph.n_edges graph);
          lens = [||];
          all_dirty = true;
          incremental = false;
          skip_valid = true;
          prev_tree = None;
          in_prev_mst = Array.make (Array.length pair_of_oedge) false;
        }
  in
  let dyn_ws =
    match mode with
    | Ip -> None
    | Arbitrary -> Some (Dynamic_routing.workspace graph)
  in
  let k = Array.length members in
  {
    session;
    graph;
    mode;
    sparsify;
    ip;
    dyn_ws;
    pair_of_oedge;
    ocsr = Flat.Csr.of_graph overlay_graph;
    prim_ws = Flat.Prim.ws ~n:k;
    tree_buf = Array.make (max (k - 1) 0) (-1);
    ops = 0;
    weight_ops = 0;
    sink = Obs.Sink.null;
  }

let same_int_array a b =
  Array.length a = Array.length b
  &&
  let rec eq i = i >= Array.length a || (a.(i) = b.(i) && eq (i + 1)) in
  eq 0

let with_session t session =
  if not (same_int_array session.Session.members t.session.Session.members)
  then invalid_arg "Overlay.with_session: member sets differ";
  (* the route table, fixed routes and incidence index are immutable and
     shared; the weight cache and counters are per-copy *)
  let ip =
    match t.ip with
    | None -> None
    | Some eng ->
      Some
        {
          eng with
          cached_w = Array.make (Array.length eng.cached_w) 0.0;
          dirty = Array.make (Array.length eng.dirty) true;
          memo_oedges = Array.make (Array.length eng.memo_oedges) (-1);
          memo_tree = None;
          memo_tbl = Hashtbl.create 64;
          oedge_order = Bitset.create (Array.length t.pair_of_oedge);
          tree_scratch = Otree.scratch ~n_edges:(Graph.n_edges t.graph);
          lens = [||];
          all_dirty = true;
          incremental = false;
          skip_valid = true;
          prev_tree = None;
          in_prev_mst = Array.make (Array.length eng.in_prev_mst) false;
        }
  in
  let k = Array.length t.session.Session.members in
  {
    t with
    session;
    ip;
    (* scratch is per-instance *)
    prim_ws = Flat.Prim.ws ~n:k;
    tree_buf = Array.make (max (k - 1) 0) (-1);
    ops = 0;
    weight_ops = 0;
    sink = Obs.Sink.null;
  }

let session t = t.session
let mode t = t.mode
let graph t = t.graph
let sparsify t = t.sparsify
let n_overlay_edges t = Array.length t.pair_of_oedge
let overlay_pairs t = Array.copy t.pair_of_oedge

let candidate_route t oe =
  match t.ip with
  | Some eng -> eng.oroutes.(oe)
  | None -> invalid_arg "Overlay.candidate_route: arbitrary mode"

let resparsify t spec =
  if Sparsify.equal spec t.sparsify then t
  else create ~sparsify:spec t.graph t.mode t.session

let set_sink t sink = t.sink <- sink
let clear_sink t = t.sink <- Obs.Sink.null

let members t = t.session.Session.members

let fixed_route t a b =
  match t.ip with
  | Some eng -> Ip_routing.route eng.table (members t).(a) (members t).(b)
  | None -> assert false

(* --- incremental engine control ------------------------------------- *)

let begin_incremental t lens =
  match t.ip with
  | None -> ()
  | Some eng ->
    eng.lens <- lens;
    eng.incremental <- true;
    eng.all_dirty <- true;
    eng.skip_valid <- true;
    eng.prev_tree <- None

let end_incremental t =
  match t.ip with
  | None -> ()
  | Some eng ->
    eng.incremental <- false;
    eng.lens <- [||]

(* Dirty marking walks the flat incidence CSR directly: same edges,
   same order as [Incidence.iter_incident], no closure allocation. *)
let mark_incident eng edge =
  if not eng.all_dirty then begin
    let off = eng.finc.Flat.Inc.off and oedge = eng.finc.Flat.Inc.oedge in
    for i = off.(edge) to off.(edge + 1) - 1 do
      eng.dirty.(oedge.(i)) <- true
    done
  end

let notify_length_increase t edge =
  match t.ip with
  | None -> ()
  | Some eng -> if eng.incremental then mark_incident eng edge

let notify_length_update t edge =
  match t.ip with
  | None -> ()
  | Some eng ->
    if eng.incremental then begin
      mark_incident eng edge;
      (* direction unknown: a decrease can pull an outside edge into the
         MST, so the monotone skip is off until the next full refresh *)
      eng.skip_valid <- false
    end

(* One index over many overlays' flat incidences: physical edge [e]'s
   entries are [dirty_of.(i)] (the owning overlay's [dirty] array) and
   [oedge.(i)] for [i] in [off.(e) .. off.(e+1)-1]. *)
type notify_index = {
  off : int array;
  dirty_of : bool array array;
  oedge : int array;
}

let notify_index ts =
  let engs = List.filter_map (fun t -> t.ip) (Array.to_list ts) in
  (* an incidence covers the edges its graph had at [create] *)
  let edges eng = Array.length eng.finc.Flat.Inc.off - 1 in
  let m = Array.fold_left (fun acc t -> max acc (Graph.n_edges t.graph)) 0 ts in
  let off = Array.make (m + 1) 0 in
  List.iter
    (fun eng ->
      let o = eng.finc.Flat.Inc.off in
      for e = 0 to edges eng - 1 do
        off.(e + 1) <- off.(e + 1) + o.(e + 1) - o.(e)
      done)
    engs;
  for e = 0 to m - 1 do
    off.(e + 1) <- off.(e + 1) + off.(e)
  done;
  let dirty_of = Array.make off.(m) [||] and oedge = Array.make off.(m) 0 in
  let next = Array.sub off 0 m in
  List.iter
    (fun eng ->
      let o = eng.finc.Flat.Inc.off and oe = eng.finc.Flat.Inc.oedge in
      for e = 0 to edges eng - 1 do
        for i = o.(e) to o.(e + 1) - 1 do
          dirty_of.(next.(e)) <- eng.dirty;
          oedge.(next.(e)) <- oe.(i);
          next.(e) <- next.(e) + 1
        done
      done)
    engs;
  { off; dirty_of; oedge }

(* Marks every overlay, whatever its state: dirty sets are unions, and
   an overlay that is [all_dirty] or not incremental clears every flag
   at its next refresh, so the extra marks change nothing. *)
let notify_usage idx usage =
  let off = idx.off and dirty_of = idx.dirty_of and oedge = idx.oedge in
  for u = 0 to Array.length usage - 1 do
    let edge, _ = usage.(u) in
    for i = off.(edge) to off.(edge + 1) - 1 do
      dirty_of.(i).(oedge.(i)) <- true
    done
  done

let notify_rescale t =
  match t.ip with
  | None -> ()
  | Some eng ->
    (* cached_w *. scale would diverge from a fresh [Route.weight] fold
       in the last ulp; re-derive everything instead (rescales are rare) *)
    if eng.incremental then eng.all_dirty <- true

(* --- weight refresh --------------------------------------------------- *)

(* every per-overlay-edge weight computation is tallied twice: in the
   per-instance counter (solver results report it) and in the process
   registry (benches and traces read it) *)
let count_weight_ops t n =
  t.weight_ops <- t.weight_ops + n;
  Obs.Counter.add c_weight_ops n

let refresh_all t eng ~length =
  let n = Array.length eng.cached_w in
  for oe = 0 to n - 1 do
    refresh_one eng ~length oe
  done;
  eng.all_dirty <- false;
  count_weight_ops t n

let refresh_dirty t eng ~length =
  let n = Array.length eng.cached_w in
  for oe = 0 to n - 1 do
    if eng.dirty.(oe) then begin
      refresh_one eng ~length oe;
      count_weight_ops t 1
    end
  done

let run_cross_check eng ~length =
  Array.iteri
    (fun oe route ->
      let fresh = Route.weight route ~length in
      if fresh <> eng.cached_w.(oe) then
        failwith
          (Printf.sprintf
             "Overlay cross-check: cached weight %.17g <> fresh %.17g on \
              overlay edge %d (missed notify_length_update?)"
             eng.cached_w.(oe) fresh oe))
    eng.oroutes

let ip_weights t eng ~length =
  if eng.incremental then begin
    if eng.all_dirty then refresh_all t eng ~length
    else refresh_dirty t eng ~length;
    if cross_check () then run_cross_check eng ~length
  end
  else refresh_all t eng ~length;
  eng.cached_w

(* Top-level recursions (no free variables, hence no closure is
   allocated at the call sites — these run on the steady-state path,
   which must allocate nothing). *)
let rec oedges_clean dirty in_prev oe n =
  oe >= n || ((not (dirty.(oe) && in_prev.(oe))) && oedges_clean dirty in_prev (oe + 1) n)

let rec same_prefix (a : int array) (b : int array) i n =
  i >= n || (a.(i) = b.(i) && same_prefix a b (i + 1) n)

let memo_cap = 512

(* A new IP tree from Prim's overlay edge ids, in linear time.
   [pair_of_oedge] is lexicographic by id, so the ids drained smallest
   first from [oedge_order] give the canonical pair order; the pair
   tuples and routes are the overlay's own, shared, not copied.  In
   cross-check mode the tree is compared with [Otree.build] of the same
   Prim output. *)
let build_ip_tree t eng oedges =
  Obs.Counter.incr c_tree_builds;
  let n = Array.length oedges in
  for i = 0 to n - 1 do
    Bitset.add eng.oedge_order oedges.(i)
  done;
  let pairs, routes =
    if n = 0 then ([||], [||])
    else begin
      let first = Bitset.pop_min eng.oedge_order in
      let pairs = Array.make n t.pair_of_oedge.(first)
      and routes = Array.make n eng.oroutes.(first) in
      for i = 1 to n - 1 do
        let id = Bitset.pop_min eng.oedge_order in
        pairs.(i) <- t.pair_of_oedge.(id);
        routes.(i) <- eng.oroutes.(id)
      done;
      (pairs, routes)
    end
  in
  let tree =
    Otree.build_sorted eng.tree_scratch ~session_id:t.session.Session.id
      ~pairs ~routes
  in
  if cross_check () then begin
    let reference =
      Otree.build ~session_id:t.session.Session.id
        ~pairs:(Array.map (fun id -> t.pair_of_oedge.(id)) oedges)
        ~routes:(Array.map (fun id -> eng.oroutes.(id)) oedges)
    in
    if
      not
        (reference.Otree.pairs = tree.Otree.pairs
        && Array.for_all2 ( == ) reference.Otree.routes tree.Otree.routes
        && reference.Otree.usage = tree.Otree.usage)
    then
      failwith
        (Printf.sprintf
           "Overlay cross-check: Otree.build_sorted differs from Otree.build \
            on a %d-pair tree of session %d"
           n t.session.Session.id)
  end;
  tree

(* The lazy paths apply when the engine is on and every stale weight
   stems from an increase.  Cross-check mode disables them so each call
   verifies the full cache. *)
let lazy_valid eng =
  eng.incremental && eng.skip_valid && (not eng.all_dirty)
  && not (cross_check ())

(* On top of [lazy_valid], the monotone skip needs a previous tree none
   of whose overlay edges is stale. *)
let prev_tree_clean eng =
  match eng.prev_tree with
  | None -> false
  | Some _ ->
    oedges_clean eng.dirty eng.in_prev_mst 0 (Array.length eng.dirty)

(* Prim's picks in [tree_buf] as an [Otree.t]: an unchanged edge
   sequence returns the memoized tree physically, a sequence seen before
   comes from the bounded table, anything else is built — so a call that
   repeats a winner allocates nothing. *)
let ip_tree t eng =
  let nt = Array.length t.tree_buf in
  let same =
    match eng.memo_tree with
    | None -> false
    | Some _ -> same_prefix t.tree_buf eng.memo_oedges 0 nt
  in
  if same then Option.get eng.memo_tree
  else begin
    let tree =
      match Hashtbl.find eng.memo_tbl t.tree_buf with
      | tree -> tree (* seen before: no rebuild *)
      | exception Not_found ->
        let oedges = Array.sub t.tree_buf 0 nt in
        let tree = build_ip_tree t eng oedges in
        if Hashtbl.length eng.memo_tbl >= memo_cap then
          Hashtbl.reset eng.memo_tbl;
        Hashtbl.add eng.memo_tbl oedges tree;
        tree
    in
    Array.blit t.tree_buf 0 eng.memo_oedges 0 nt;
    eng.memo_tree <- Some tree;
    tree
  end

let min_spanning_tree t ~length =
  t.ops <- t.ops + 1;
  Obs.Counter.incr c_mst_ops;
  match t.mode with
  | Ip ->
    let eng = Option.get t.ip in
    let lazy_bounds = lazy_valid eng in
    if lazy_bounds && prev_tree_clean eng then begin
      Obs.Counter.incr c_lazy_skips;
      if Obs.Sink.enabled t.sink then
        Obs.Sink.emit t.sink Obs.Mst_lazy_skip ~session:t.session.Session.id
          ~a:0.0 ~b:0.0;
      Option.get eng.prev_tree
    end
    else begin
      (* Under increase-only staleness a stale cached weight is a lower
         bound on the true weight, so Prim can consult it first and
         refresh an overlay edge only when it is actually competitive —
         edges whose stale weight already loses are never re-walked and
         simply stay dirty.  The lazy trajectory is identical to the
         eager run, so the tree sequence cannot drift.  Cross-check
         mode keeps the eager path (it verifies the full cache). *)
      let ops_before = t.weight_ops in
      if lazy_bounds then begin
        let refreshed =
          Flat.Prim.lazy_routes_into t.prim_ws t.ocsr ~w:eng.cached_w
            ~dirty:eng.dirty ~routes:eng.froutes ~lens:eng.lens
            ~edges:t.tree_buf
        in
        if refreshed > 0 then count_weight_ops t refreshed
      end
      else
        Flat.Prim.into t.prim_ws t.ocsr ~w:(ip_weights t eng ~length)
          ~edges:t.tree_buf;
      let tree = ip_tree t eng in
      if eng.incremental then begin
        (match eng.prev_tree with
        | Some prev when prev == tree ->
          (* the memo returned the previous tree itself, so the edge
             sequence is the one [in_prev_mst] already marks *)
          ()
        | _ ->
          Array.fill eng.in_prev_mst 0 (Array.length eng.in_prev_mst) false;
          for i = 0 to Array.length t.tree_buf - 1 do
            eng.in_prev_mst.(t.tree_buf.(i)) <- true
          done;
          eng.prev_tree <- Some tree);
        eng.skip_valid <- true
      end;
      Obs.Counter.incr c_recomputes;
      if Obs.Sink.enabled t.sink then
        Obs.Sink.emit t.sink Obs.Mst_recompute ~session:t.session.Session.id
          ~a:(float_of_int (t.weight_ops - ops_before))
          ~b:(if lazy_bounds then 1.0 else 0.0);
      tree
    end
  | Arbitrary ->
    let ws = Option.get t.dyn_ws in
    let snapshot =
      Dynamic_routing.routes_ws ws t.graph ~members:(members t) ~length
    in
    let ms = members t in
    let weights =
      Array.map
        (fun (a, b) -> Dynamic_routing.distance snapshot ms.(a) ms.(b))
        t.pair_of_oedge
    in
    count_weight_ops t (Array.length weights);
    Obs.Counter.incr c_recomputes;
    Obs.Sink.emit t.sink Obs.Mst_recompute ~session:t.session.Session.id
      ~a:(float_of_int (Array.length weights))
      ~b:0.0;
    Flat.Prim.into t.prim_ws t.ocsr ~w:weights ~edges:t.tree_buf;
    let pairs = Array.map (fun id -> t.pair_of_oedge.(id)) t.tree_buf in
    let routes =
      Array.map
        (fun (a, b) -> Dynamic_routing.route snapshot ms.(a) ms.(b))
        pairs
    in
    build_tree t ~pairs ~routes

let tree_of_pairs t ~pairs ~length =
  let ms = members t in
  match t.mode with
  | Ip ->
    let routes = Array.map (fun (a, b) -> fixed_route t a b) pairs in
    build_tree t ~pairs ~routes
  | Arbitrary ->
    let ws = Option.get t.dyn_ws in
    let snapshot = Dynamic_routing.routes_ws ws t.graph ~members:ms ~length in
    let routes =
      Array.map (fun (a, b) -> Dynamic_routing.route snapshot ms.(a) ms.(b)) pairs
    in
    build_tree t ~pairs ~routes

let max_route_hops t =
  match t.ip with
  | Some eng -> Ip_routing.max_hops eng.table
  | None -> Graph.n_vertices t.graph - 1

let covered_edges t =
  match t.ip with
  | Some eng -> Ip_routing.covered_edges eng.table
  | None -> Array.init (Graph.n_edges t.graph) (fun i -> i)

let mst_operations t = t.ops
let reset_mst_operations t = t.ops <- 0

let total_mst_operations ts =
  Array.fold_left (fun acc t -> acc + t.ops) 0 ts

let weight_operations t = t.weight_ops
