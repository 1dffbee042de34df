let default_tol = 1e-6

type violation =
  | Negative_rate of { slot : int; rate : float }
  | Wrong_session of { slot : int; tree_session_id : int; expected : int }
  | Not_spanning of { slot : int; n_members : int; detail : string }
  | Route_endpoints of {
      slot : int;
      pair : int * int;
      src : int;
      dst : int;
      expected_src : int;
      expected_dst : int;
    }
  | Broken_route of { slot : int; pair : int * int }
  | Usage_mismatch of { slot : int; edge : int; claimed : int; recomputed : int }
  | Overload of { edge : int; load : float; capacity : float }
  | Weak_duality of { primal : float; dual_bound : float }
  | Duality_gap of {
      primal : float;
      dual_bound : float;
      claimed : float;
      achieved : float;
    }
  | Scaling_violation of { slot : int; expected : float; actual : float; detail : string }

type verdict = {
  violations : violation list;
  checked_sessions : int;
  checked_trees : int;
  max_congestion : float;
  primal : float option;
  dual_bound : float option;
}

let ok v = v.violations = []

let violation_name = function
  | Negative_rate _ -> "negative_rate"
  | Wrong_session _ -> "wrong_session"
  | Not_spanning _ -> "not_spanning"
  | Route_endpoints _ -> "route_endpoints"
  | Broken_route _ -> "broken_route"
  | Usage_mismatch _ -> "usage_mismatch"
  | Overload _ -> "overload"
  | Weak_duality _ -> "weak_duality"
  | Duality_gap _ -> "duality_gap"
  | Scaling_violation _ -> "scaling_violation"

let pp_violation fmt = function
  | Negative_rate { slot; rate } ->
    Format.fprintf fmt "negative_rate: session %d carries rate %g" slot rate
  | Wrong_session { slot; tree_session_id; expected } ->
    Format.fprintf fmt
      "wrong_session: tree filed under slot %d claims session id %d (expected %d)"
      slot tree_session_id expected
  | Not_spanning { slot; n_members; detail } ->
    Format.fprintf fmt
      "not_spanning: session %d tree is not a spanning tree over %d members (%s)"
      slot n_members detail
  | Route_endpoints { slot; pair = a, b; src; dst; expected_src; expected_dst } ->
    Format.fprintf fmt
      "route_endpoints: session %d overlay edge (%d,%d) realized by route \
       %d->%d, expected %d<->%d"
      slot a b src dst expected_src expected_dst
  | Broken_route { slot; pair = a, b } ->
    Format.fprintf fmt
      "broken_route: session %d overlay edge (%d,%d) has a non-contiguous \
       physical route"
      slot a b
  | Usage_mismatch { slot; edge; claimed; recomputed } ->
    Format.fprintf fmt
      "usage_mismatch: session %d claims n_e(%d)=%d but the routes contain it \
       %d times"
      slot edge claimed recomputed
  | Overload { edge; load; capacity } ->
    Format.fprintf fmt "overload: edge %d carries %g over capacity %g" edge
      load capacity
  | Weak_duality { primal; dual_bound } ->
    Format.fprintf fmt
      "weak_duality: primal %g exceeds the dual upper bound %g" primal
      dual_bound
  | Duality_gap { primal; dual_bound; claimed; achieved } ->
    Format.fprintf fmt
      "duality_gap: primal %g vs dual bound %g achieves %.6f of optimal, \
       below the claimed %.6f"
      primal dual_bound achieved claimed
  | Scaling_violation { slot; expected; actual; detail } ->
    Format.fprintf fmt
      "scaling_violation: session %d working demand %g, re-derivation says %g \
       (%s)"
      slot actual expected detail

let pp_verdict fmt v =
  if ok v then
    Format.fprintf fmt
      "certificate OK: %d sessions, %d trees, max congestion %.6f%t" v.checked_sessions
      v.checked_trees v.max_congestion (fun fmt ->
        match (v.primal, v.dual_bound) with
        | Some p, Some d ->
          Format.fprintf fmt ", primal %.4f <= dual bound %.4f (gap %.4f)" p d
            (if d > 0.0 then p /. d else nan)
        | _ -> ())
  else begin
    Format.fprintf fmt "certificate FAILED: %d violation(s)"
      (List.length v.violations);
    List.iter (fun viol -> Format.fprintf fmt "@\n  - %a" pp_violation viol)
      v.violations
  end

(* --- structural certificate -------------------------------------------- *)

(* One workspace per [certify] call, reused across its trees.

   The recount is stamp-versioned: [count.(e)] is physical edge [e]'s
   multiplicity in the current tree when [count_stamp.(e) = stamp], and
   0 otherwise; [listed_stamp.(e) = stamp] marks an edge the current
   tree's usage table lists.  Bumping [stamp] empties both for the next
   tree in O(1).  [touched.(0 .. n_touched-1)] are the current tree's
   recounted edges in first-seen order.  Route edge ids outside the
   graph are never used as an index: they are recounted in [outside],
   which stays empty on any well-formed tree.  [parent] is the
   union-find over member slots, sized for the largest session. *)
type outside_edge = { id : int; mutable n : int; mutable listed : bool }

type ws = {
  count : int array;
  count_stamp : int array;
  listed_stamp : int array;
  touched : int array;
  mutable n_touched : int;
  mutable stamp : int;
  mutable outside : outside_edge list;
  parent : int array;
}

let workspace ~n_edges ~max_members =
  {
    count = Array.make n_edges 0;
    count_stamp = Array.make n_edges 0;
    listed_stamp = Array.make n_edges 0;
    touched = Array.make n_edges 0;
    n_touched = 0;
    stamp = 0;
    outside = [];
    parent = Array.make (max max_members 1) 0;
  }

(* Root of [x] with path halving: every node on the way is re-pointed
   at its grandparent.  Local on purpose — the kernel re-derives
   connectivity itself rather than delegating to the same helpers the
   solvers use. *)
let rec find parent x =
  let p = parent.(x) in
  if p = x then x
  else begin
    let gp = parent.(p) in
    parent.(x) <- gp;
    find parent gp
  end

(* [None] when [pairs] is a spanning tree over slots [0 .. n-1], else
   why not; [parent] needs at least [n] cells *)
let spanning_detail parent pairs ~n =
  let n_pairs = Array.length pairs in
  if n_pairs <> n - 1 then
    Some (Printf.sprintf "%d overlay edges where %d were required" n_pairs
            (n - 1))
  else begin
    for i = 0 to n - 1 do
      parent.(i) <- i
    done;
    let bad = ref None and j = ref 0 in
    while !bad = None && !j < n_pairs do
      let a, b = pairs.(!j) in
      if a < 0 || b < 0 || a >= n || b >= n then
        bad := Some (Printf.sprintf "member slot out of range in (%d,%d)" a b)
      else if a = b then bad := Some (Printf.sprintf "self-loop (%d,%d)" a b)
      else begin
        let ra = find parent a and rb = find parent b in
        if ra = rb then
          bad := Some (Printf.sprintf "(%d,%d) closes a cycle" a b)
        else parent.(ra) <- rb
      end;
      incr j
    done;
    !bad
    (* n-1 acyclic edges over n vertices are necessarily connected *)
  end

let recount_outside ws id =
  match List.find_opt (fun o -> o.id = id) ws.outside with
  | Some o -> o.n <- o.n + 1
  | None -> ws.outside <- { id; n = 1; listed = false } :: ws.outside

(* adds one traversal of every edge of [edges] to the recount *)
let recount_route ws edges =
  let m = Array.length ws.count in
  for i = 0 to Array.length edges - 1 do
    let id = edges.(i) in
    if id < 0 || id >= m then recount_outside ws id
    else if ws.count_stamp.(id) = ws.stamp then
      ws.count.(id) <- ws.count.(id) + 1
    else begin
      ws.count_stamp.(id) <- ws.stamp;
      ws.count.(id) <- 1;
      ws.touched.(ws.n_touched) <- id;
      ws.n_touched <- ws.n_touched + 1
    end
  done

let check_tree ws ~violations ~loads g slot session (tree : Otree.t) rate =
  if rate < 0.0 then
    violations := Negative_rate { slot; rate } :: !violations;
  if tree.Otree.session_id <> session.Session.id then
    violations :=
      Wrong_session
        { slot; tree_session_id = tree.Otree.session_id;
          expected = session.Session.id }
      :: !violations;
  let n = Session.size session in
  let members = session.Session.members in
  let pairs = tree.Otree.pairs and routes = tree.Otree.routes in
  (match spanning_detail ws.parent pairs ~n with
  | Some detail ->
    violations := Not_spanning { slot; n_members = n; detail } :: !violations
  | None -> ());
  ws.stamp <- ws.stamp + 1;
  ws.n_touched <- 0;
  ws.outside <- [];
  (* recount physical multiplicities by re-walking every route; a pair
     without a route is a broken realization *)
  for j = 0 to Array.length pairs - 1 do
    let ((a, b) as pair) = pairs.(j) in
    if j >= Array.length routes then
      violations := Broken_route { slot; pair } :: !violations
    else begin
      let route = routes.(j) in
      if a >= 0 && b >= 0 && a < n && b < n then begin
        let es = members.(a) and ed = members.(b) in
        let src = route.Route.src and dst = route.Route.dst in
        if not ((src = es && dst = ed) || (src = ed && dst = es)) then
          violations :=
            Route_endpoints
              { slot; pair; src; dst; expected_src = es; expected_dst = ed }
            :: !violations
      end;
      if not (Route.is_valid g route) then
        violations := Broken_route { slot; pair } :: !violations;
      recount_route ws route.Route.edges
    end
  done;
  (* the tree's own usage table must agree with the recount *)
  let m = Array.length ws.count in
  let usage = tree.Otree.usage in
  for u = 0 to Array.length usage - 1 do
    let id, claimed = usage.(u) in
    let actual =
      if id >= 0 && id < m then begin
        ws.listed_stamp.(id) <- ws.stamp;
        if ws.count_stamp.(id) = ws.stamp then ws.count.(id) else 0
      end
      else
        match List.find_opt (fun o -> o.id = id) ws.outside with
        | Some o ->
          o.listed <- true;
          o.n
        | None -> 0
    in
    if actual <> claimed then
      violations :=
        Usage_mismatch { slot; edge = id; claimed; recomputed = actual }
        :: !violations
  done;
  if ws.outside <> [] then
    List.iter
      (fun o ->
        if not o.listed then
          violations :=
            Usage_mismatch { slot; edge = o.id; claimed = 0; recomputed = o.n }
            :: !violations)
      ws.outside;
  (* loads accumulate from the recount, not the table: one
     [count *. rate] per edge and tree *)
  for i = 0 to ws.n_touched - 1 do
    let id = ws.touched.(i) in
    let count = ws.count.(id) in
    if ws.listed_stamp.(id) <> ws.stamp then
      violations :=
        Usage_mismatch { slot; edge = id; claimed = 0; recomputed = count }
        :: !violations;
    loads.(id) <- loads.(id) +. (float_of_int count *. rate)
  done

let certify ?(tol = default_tol) g solution =
  let sessions = Solution.sessions solution in
  let violations = ref [] in
  let loads = Array.make (Graph.n_edges g) 0.0 in
  let ws =
    workspace ~n_edges:(Graph.n_edges g)
      ~max_members:(Array.fold_left (fun acc s -> max acc (Session.size s)) 0
                      sessions)
  in
  let n_trees = ref 0 in
  Array.iteri
    (fun slot session ->
      List.iter
        (fun (tree, rate) ->
          incr n_trees;
          check_tree ws ~violations ~loads g slot session tree rate)
        (Solution.trees solution slot))
    sessions;
  let worst = ref 0.0 in
  Graph.iter_edges g (fun e ->
      let load = loads.(e.Graph.id) in
      if e.Graph.capacity > 0.0 then begin
        worst := Float.max !worst (load /. e.Graph.capacity);
        if load > e.Graph.capacity *. (1.0 +. tol) then
          violations :=
            Overload { edge = e.Graph.id; load; capacity = e.Graph.capacity }
            :: !violations
      end
      else if load > 0.0 then begin
        worst := infinity;
        violations :=
          Overload { edge = e.Graph.id; load; capacity = e.Graph.capacity }
          :: !violations
      end);
  {
    violations = List.rev !violations;
    checked_sessions = Array.length sessions;
    checked_trees = !n_trees;
    max_congestion = !worst;
    primal = None;
    dual_bound = None;
  }

(* --- duality certificates ----------------------------------------------- *)

let session_rate_from_trees solution slot =
  List.fold_left (fun acc (_, r) -> acc +. r) 0.0 (Solution.trees solution slot)

let require_same_sessions ~who g overlays solution =
  let sessions = Solution.sessions solution in
  if Array.length overlays <> Array.length sessions then
    invalid_arg (who ^ ": overlay/session count mismatch");
  Array.iteri
    (fun i o ->
      if (Overlay.session o).Session.id <> sessions.(i).Session.id then
        invalid_arg (who ^ ": overlay/session id mismatch");
      if Overlay.graph o != g then
        invalid_arg (who ^ ": overlay built on a different graph"))
    overlays;
  sessions

(* sum_e c_e * lens_e, in the scale-free units of [dual_lengths] *)
let dual_objective g lens =
  Graph.fold_edges g
    (fun acc e ->
      if e.Graph.capacity > 0.0 then
        acc +. (e.Graph.capacity *. lens.(e.Graph.id))
      else acc)
    0.0

(* Kruskal's visiting order is ascending [(w.(oe), oe)], drawn from a
   binary min-heap of overlay edge ids: building it is linear, and the
   pops stop as soon as the tree spans. *)
let[@inline] heap_less (w : float array) x y =
  w.(x) < w.(y) || (w.(x) = w.(y) && x < y)

(* sifts [x] down from the hole at [i] of [heap.(0 .. n-1)] *)
let rec sift_down w heap n i x =
  let l = (2 * i) + 1 in
  if l >= n then heap.(i) <- x
  else begin
    let c =
      if l + 1 < n && heap_less w heap.(l + 1) heap.(l) then l + 1 else l
    in
    let y = heap.(c) in
    if heap_less w y x then begin
      heap.(i) <- y;
      sift_down w heap n c x
    end
    else heap.(i) <- x
  end

(* The candidate pairs' weights under [lens]: in IP mode each fixed
   route summed left to right; in arbitrary mode the shortest-path
   distance, from one Dijkstra per slot that opens a pair (the pairs
   are sorted by first slot). *)
let pair_weights overlay pairs lens =
  let w = Array.make (Array.length pairs) 0.0 in
  (match Overlay.mode overlay with
  | Overlay.Ip ->
    for oe = 0 to Array.length pairs - 1 do
      let edges = (Overlay.candidate_route overlay oe).Route.edges in
      let acc = ref 0.0 in
      for i = 0 to Array.length edges - 1 do
        acc := !acc +. lens.(edges.(i))
      done;
      w.(oe) <- !acc
    done
  | Overlay.Arbitrary ->
    let g = Overlay.graph overlay in
    let members = (Overlay.session overlay).Session.members in
    let length id = lens.(id) in
    Dijkstra.validate_lengths g ~length;
    let ws = Dijkstra.workspace ~n:(Graph.n_vertices g) in
    let source = ref (-1) and dist = ref [||] in
    Array.iteri
      (fun oe (a, b) ->
        if a <> !source then begin
          source := a;
          dist :=
            (Dijkstra.shortest_path_tree_ws ws g ~length ~source:members.(a))
              .Dijkstra.dist
        end;
        w.(oe) <- !dist.(members.(b)))
      pairs);
  w

(* alpha(d)'s per-session term, from no solver code: Kruskal over the
   overlay's candidate pairs on this module's union-find, each pair
   weighed by [pair_weights].  [infinity] when the pairs do not span
   the members. *)
let min_tree_weight overlay lens =
  let pairs = Overlay.overlay_pairs overlay in
  let w = pair_weights overlay pairs lens in
  let n_pairs = Array.length pairs in
  let heap = Array.make n_pairs 0 in
  for oe = 0 to n_pairs - 1 do
    heap.(oe) <- oe
  done;
  for i = (n_pairs / 2) - 1 downto 0 do
    sift_down w heap n_pairs i heap.(i)
  done;
  let n = Session.size (Overlay.session overlay) in
  let parent = Array.make (max n 1) 0 in
  for i = 0 to n - 1 do
    parent.(i) <- i
  done;
  let total = ref 0.0 and joined = ref 0 and left = ref n_pairs in
  while !joined < n - 1 && !left > 0 do
    let oe = heap.(0) in
    decr left;
    sift_down w heap !left 0 heap.(!left);
    let a, b = pairs.(oe) in
    let ra = find parent a and rb = find parent b in
    if ra <> rb then begin
      parent.(ra) <- rb;
      total := !total +. w.(oe);
      incr joined
    end
  done;
  if !joined < n - 1 then infinity else !total

(* [primal >= claimed * ub] certifies the approximation factor because
   [ub >= OPT] by weak duality; [primal <= ub] is weak duality itself.
   [ln_ub] arrives in log space so the dual scale factor exp(ln_base)
   never has to be materialized. *)
let duality_checks ~tol ~claimed ~primal ~ln_ub violations =
  let dual_bound = exp ln_ub in
  if not (Float.is_finite dual_bound && dual_bound > 0.0) then
    violations := Weak_duality { primal; dual_bound } :: !violations
  else begin
    let achieved = primal /. dual_bound in
    if achieved > 1.0 +. tol then
      violations := Weak_duality { primal; dual_bound } :: !violations
    else if achieved < claimed -. tol then
      violations :=
        Duality_gap { primal; dual_bound; claimed; achieved } :: !violations
  end;
  dual_bound

let certify_max_flow ?(tol = default_tol) g overlays (r : Max_flow.result) =
  let solution = r.Max_flow.solution in
  let sessions =
    require_same_sessions ~who:"Check.certify_max_flow" g overlays solution
  in
  let base = certify ~tol g solution in
  let smax = float_of_int (Session.max_size sessions - 1) in
  let primal =
    let acc = ref 0.0 in
    Array.iteri
      (fun i s ->
        acc :=
          !acc
          +. (float_of_int (Session.receivers s)
             *. session_rate_from_trees solution i))
      sessions;
    !acc /. smax
  in
  let lens = r.Max_flow.dual_lengths in
  let s_obj = dual_objective g lens in
  (* alpha(d): minimum normalized overlay-spanning-tree length, from
     this module's own MST per session under the final lengths *)
  let alpha = ref infinity in
  Array.iteri
    (fun i o ->
      let w =
        min_tree_weight o lens
        *. (smax /. float_of_int (Session.receivers sessions.(i)))
      in
      alpha := Float.min !alpha w)
    overlays;
  let violations = ref (List.rev base.violations) in
  (* exp(dual_ln_base) scales numerator and denominator alike, so the
     ratio D(d)/alpha(d) is computed purely in the lens units *)
  let ln_ub = log s_obj -. log !alpha in
  let claimed = 1.0 -. (2.0 *. r.Max_flow.epsilon) in
  let dual_bound = duality_checks ~tol ~claimed ~primal ~ln_ub violations in
  {
    base with
    violations = List.rev !violations;
    primal = Some primal;
    dual_bound = Some dual_bound;
  }

let certify_mcf ?(tol = default_tol) g overlays ~scaling
    (r : Max_concurrent_flow.result) =
  let solution = r.Max_concurrent_flow.solution in
  let sessions =
    require_same_sessions ~who:"Check.certify_mcf" g overlays solution
  in
  let base = certify ~tol g solution in
  let violations = ref (List.rev base.violations) in
  let k = Array.length sessions in
  let kf = float_of_int k in
  let zetas = r.Max_concurrent_flow.zetas in
  let working = r.Max_concurrent_flow.working_demands in
  if Array.length zetas <> k || Array.length working <> k then
    invalid_arg "Check.certify_mcf: result arrays disagree with session count";
  (* Re-derive the preprocessing demand scaling (Sec. III-C) from the
     zetas and check the main loop routed a common power-of-two multiple
     of it: doublings at the T-horizon scale every session equally, so
     the direction must match exactly. *)
  let bases =
    match scaling with
    | Max_concurrent_flow.Maxflow_weighted ->
      Array.map (fun z -> Float.max (z /. kf) 1e-12) zetas
    | Max_concurrent_flow.Proportional ->
      let lambda =
        Array.fold_left Float.min infinity
          (Array.mapi
             (fun i z -> z /. sessions.(i).Session.demand)
             zetas)
      in
      let s = Float.max (lambda /. kf) 1e-12 in
      Array.map (fun sess -> sess.Session.demand *. s) sessions
  in
  let gamma = working.(0) /. bases.(0) in
  Array.iteri
    (fun i w ->
      let expected = gamma *. bases.(i) in
      if abs_float (w -. expected) > tol *. Float.max expected 1e-12 then
        violations :=
          Scaling_violation
            { slot = i; expected; actual = w;
              detail =
                (match scaling with
                | Max_concurrent_flow.Maxflow_weighted ->
                  "not proportional to the zetas"
                | Max_concurrent_flow.Proportional ->
                  "requested demand ratios not preserved") }
          :: !violations)
    working;
  let log2_gamma = Float.round (log gamma /. log 2.0) in
  let pow2 = Float.pow 2.0 log2_gamma in
  if
    log2_gamma < -0.5
    || abs_float (gamma -. pow2) > tol *. Float.max pow2 1e-12
  then
    violations :=
      Scaling_violation
        { slot = -1; expected = pow2; actual = gamma;
          detail = "overall factor is not a power-of-two demand doubling" }
      :: !violations;
  (* Concurrent-flow duality in the working-demand direction:
     OPT <= sum_e c_e d_e / sum_i working_i * mintree_i(d). *)
  let primal =
    let f = ref infinity in
    Array.iteri
      (fun i _ ->
        f := Float.min !f (session_rate_from_trees solution i /. working.(i)))
      sessions;
    !f
  in
  let lens = r.Max_concurrent_flow.dual_lengths in
  let s_obj = dual_objective g lens in
  let denom = ref 0.0 in
  Array.iteri
    (fun i o -> denom := !denom +. (working.(i) *. min_tree_weight o lens))
    overlays;
  let ln_ub = log s_obj -. log !denom in
  let claimed = 1.0 -. (3.0 *. r.Max_concurrent_flow.epsilon) in
  let dual_bound = duality_checks ~tol ~claimed ~primal ~ln_ub violations in
  {
    base with
    violations = List.rev !violations;
    primal = Some primal;
    dual_bound = Some dual_bound;
  }
