type t = {
  session_id : int;
  pairs : (int * int) array;
  routes : Route.t array;
  usage : (int * int) array;
}

(* The sign of [compare_pairs] equals that of polymorphic [compare] on
   int pairs, and the sorts' moves depend only on that sign, so [build]
   orders pairs, ties included, as a polymorphic [Array.sort] would. *)
let compare_pairs ((a1 : int), (b1 : int)) (a2, b2) =
  if a1 <> a2 then compare a1 a2 else compare b1 b2

(* (edge id, multiplicity) rows of the routes' edges, ascending by id:
   every edge id in one array, sorted, then run-length encoded *)
let usage_of_routes routes =
  let total =
    Array.fold_left (fun acc r -> acc + Array.length r.Route.edges) 0 routes
  in
  let ids = Array.make total 0 in
  ignore
    (Array.fold_left
       (fun pos r ->
         let edges = r.Route.edges in
         Array.blit edges 0 ids pos (Array.length edges);
         pos + Array.length edges)
       0 routes);
  Array.stable_sort (fun (a : int) b -> compare a b) ids;
  let distinct = ref 0 in
  for i = 0 to total - 1 do
    if i = 0 || ids.(i) <> ids.(i - 1) then incr distinct
  done;
  let usage = Array.make !distinct (0, 0) in
  let row = ref 0 and run = ref 0 in
  for i = 0 to total - 1 do
    incr run;
    if i = total - 1 || ids.(i + 1) <> ids.(i) then begin
      usage.(!row) <- (ids.(i), !run);
      incr row;
      run := 0
    end
  done;
  usage

let build ~session_id ~pairs ~routes =
  let n = Array.length pairs in
  if n <> Array.length routes then
    invalid_arg "Otree.build: pairs/routes length mismatch";
  let normalized =
    Array.map (fun ((a, b) as p) -> if a < b then p else (b, a)) pairs
  in
  let cmp i j = compare_pairs normalized.(i) normalized.(j) in
  let order = Array.init n (fun i -> i) in
  (* The merge sort makes about half the comparisons of [Array.sort]'s
     heap sort (99-pair tree: 6.5 vs 9.8 us per build, EXPERIMENTS.md).
     The two agree unless pairs tie, which no tree has; tied pairs are
     re-sorted from the identity with [Array.sort], whose tie order
     otree.mli documents. *)
  Array.stable_sort cmp order;
  let tied = ref false in
  for i = 1 to n - 1 do
    if cmp order.(i - 1) order.(i) = 0 then tied := true
  done;
  if !tied then begin
    Array.iteri (fun i _ -> order.(i) <- i) order;
    Array.sort cmp order
  end;
  let pairs = Array.map (fun i -> normalized.(i)) order in
  let routes = Array.map (fun i -> routes.(i)) order in
  { session_id; pairs; routes; usage = usage_of_routes routes }

(* --- linear-time construction from canonical pairs ---------------------- *)

(* Between calls every count is 0 and [edges] is empty. *)
type scratch = { counts : int array; edges : Bitset.t }

let scratch ~n_edges =
  { counts = Array.make n_edges 0; edges = Bitset.create n_edges }

let build_sorted s ~session_id ~pairs ~routes =
  let n = Array.length pairs in
  if n <> Array.length routes then
    invalid_arg "Otree.build_sorted: pairs/routes length mismatch";
  for i = 0 to n - 1 do
    let a, b = pairs.(i) in
    let ordered =
      a < b
      && (i = 0
         ||
         let a0, b0 = pairs.(i - 1) in
         a0 < a || (a0 = a && b0 < b))
    in
    if not ordered then
      invalid_arg "Otree.build_sorted: pairs not in canonical order"
  done;
  (* count every route edge; [edges] collects the distinct ids *)
  let counts = s.counts in
  let m = Array.length counts in
  let distinct = ref 0 in
  for j = 0 to n - 1 do
    let edges = routes.(j).Route.edges in
    for i = 0 to Array.length edges - 1 do
      let id = edges.(i) in
      if id < 0 || id >= m then begin
        Array.fill counts 0 m 0;
        Bitset.clear s.edges;
        invalid_arg "Otree.build_sorted: route edge id outside the scratch"
      end;
      let c = counts.(id) in
      if c = 0 then begin
        Bitset.add s.edges id;
        incr distinct
      end;
      counts.(id) <- c + 1
    done
  done;
  (* drained smallest first, the ids come out in [usage] order; each
     count is zeroed as it is read *)
  let usage = Array.make !distinct (0, 0) in
  for u = 0 to !distinct - 1 do
    let id = Bitset.pop_min s.edges in
    usage.(u) <- (id, counts.(id));
    counts.(id) <- 0
  done;
  { session_id; pairs; routes; usage }

let n_e t edge_id =
  let lo = ref 0 and hi = ref (Array.length t.usage - 1) in
  let found = ref 0 in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let id, c = t.usage.(mid) in
    if id = edge_id then begin
      found := c;
      lo := !hi + 1
    end
    else if id < edge_id then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let iter_usage t f = Array.iter (fun (id, c) -> f id c) t.usage

(* Plain loops over [usage]: the accumulator stays an unboxed local, and
   there is no closure call per edge. *)

let weight t lens =
  let acc = ref 0.0 in
  let usage = t.usage in
  for i = 0 to Array.length usage - 1 do
    let id, c = usage.(i) in
    acc := !acc +. (float_of_int c *. lens.(id))
  done;
  !acc

let bottleneck t caps =
  let acc = ref infinity in
  let usage = t.usage in
  for i = 0 to Array.length usage - 1 do
    let id, c = usage.(i) in
    acc := Float.min !acc (caps.(id) /. float_of_int c)
  done;
  !acc

(* --- identity ------------------------------------------------------------

   Top-level functions only: without flambda a local recursive function
   allocates its closure on every call, and [Solution.add] of a known
   tree must allocate nothing. *)

(* equal lengths, and [eq] holds index by index *)
let same_arrays eq a b =
  let n = Array.length a in
  n = Array.length b
  &&
  let i = ref 0 in
  while !i < n && eq a.(!i) b.(!i) do
    incr i
  done;
  !i = n

let same_pair ((a1 : int), (b1 : int)) (a2, b2) = a1 = a2 && b1 = b2

let same_route r1 r2 =
  r1 == r2 || same_arrays Int.equal r1.Route.edges r2.Route.edges

let equal a b =
  a == b
  || same_arrays same_pair a.pairs b.pairs
     && same_arrays same_route a.routes b.routes

let hash t =
  let h = ref 0 in
  let pairs = t.pairs in
  for i = 0 to Array.length pairs - 1 do
    let a, b = pairs.(i) in
    h := (((!h * 31) + a) * 31) + b
  done;
  Hashtbl.hash !h

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

let n_overlay_edges t = Array.length t.pairs

let is_spanning t ~n_members =
  Array.length t.pairs = n_members - 1
  &&
  let uf = Union_find.create n_members in
  Array.for_all (fun (a, b) -> Union_find.union uf a b) t.pairs
  && Union_find.count uf = 1

let pp fmt t =
  Format.fprintf fmt "otree<session %d, %d overlay edges, %d physical links>"
    t.session_id (Array.length t.pairs) (Array.length t.usage)
