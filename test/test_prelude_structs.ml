(* Tests for Union_find, Indexed_heap, Stats, Cdf, Tableau. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

(* --- Union_find ----------------------------------------------------- *)

let test_uf_basic () =
  let uf = Union_find.create 5 in
  checki "5 singletons" 5 (Union_find.count uf);
  checkb "union works" true (Union_find.union uf 0 1);
  checkb "re-union is false" false (Union_find.union uf 1 0);
  checkb "same" true (Union_find.same uf 0 1);
  checkb "not same" false (Union_find.same uf 0 2);
  checki "4 classes" 4 (Union_find.count uf);
  checki "size 2" 2 (Union_find.size uf 0)

let test_uf_transitive () =
  let uf = Union_find.create 6 in
  ignore (Union_find.union uf 0 1);
  ignore (Union_find.union uf 1 2);
  ignore (Union_find.union uf 3 4);
  checkb "transitive" true (Union_find.same uf 0 2);
  checkb "separate" false (Union_find.same uf 2 3);
  checki "3 classes" 3 (Union_find.count uf)

let test_uf_groups () =
  let uf = Union_find.create 4 in
  ignore (Union_find.union uf 0 3);
  let groups = Union_find.groups uf in
  checki "3 groups" 3 (List.length groups);
  let total = List.fold_left (fun acc g -> acc + Array.length g) 0 groups in
  checki "all elements covered" 4 total

let test_uf_reset () =
  let uf = Union_find.create 4 in
  ignore (Union_find.union uf 0 1);
  Union_find.reset uf;
  checki "back to singletons" 4 (Union_find.count uf);
  checkb "separated" false (Union_find.same uf 0 1)

let qcheck_uf_partition =
  QCheck.Test.make ~name:"union-find classes = components" ~count:100
    QCheck.(list (pair (int_range 0 9) (int_range 0 9)))
    (fun pairs ->
      let uf = Union_find.create 10 in
      List.iter (fun (a, b) -> ignore (Union_find.union uf a b)) pairs;
      (* count equals number of distinct roots *)
      let roots = Hashtbl.create 10 in
      for v = 0 to 9 do
        Hashtbl.replace roots (Union_find.find uf v) ()
      done;
      Hashtbl.length roots = Union_find.count uf)

(* --- Indexed_heap --------------------------------------------------- *)

let test_heap_ordering () =
  let h = Indexed_heap.create 10 in
  List.iter (fun (k, p) -> Indexed_heap.insert h k p)
    [ (0, 5.0); (1, 1.0); (2, 3.0); (3, 0.5); (4, 4.0) ];
  let order = List.init 5 (fun _ -> fst (Indexed_heap.pop_min h)) in
  Alcotest.(check (list int)) "ascending priority order" [ 3; 1; 2; 4; 0 ] order

let test_heap_decrease () =
  let h = Indexed_heap.create 4 in
  Indexed_heap.insert h 0 10.0;
  Indexed_heap.insert h 1 5.0;
  Indexed_heap.decrease h 0 1.0;
  checki "decreased key pops first" 0 (fst (Indexed_heap.pop_min h))

let test_heap_insert_or_decrease () =
  let h = Indexed_heap.create 4 in
  Indexed_heap.insert_or_decrease h 2 9.0;
  Indexed_heap.insert_or_decrease h 2 3.0;
  Indexed_heap.insert_or_decrease h 2 7.0 (* ignored: larger *);
  checkf "kept the smallest" 3.0 (Indexed_heap.priority h 2)

let test_heap_duplicate_rejected () =
  let h = Indexed_heap.create 4 in
  Indexed_heap.insert h 1 1.0;
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Indexed_heap.insert: duplicate key") (fun () ->
      Indexed_heap.insert h 1 2.0)

let test_heap_clear () =
  let h = Indexed_heap.create 4 in
  Indexed_heap.insert h 1 1.0;
  Indexed_heap.clear h;
  checkb "empty" true (Indexed_heap.is_empty h);
  checkb "key gone" false (Indexed_heap.mem h 1)

let qcheck_heapsort =
  QCheck.Test.make ~name:"indexed heap sorts like List.sort" ~count:200
    QCheck.(list_of_size (Gen.int_range 0 40) (float_range 0.0 100.0))
    (fun floats ->
      let n = List.length floats in
      let h = Indexed_heap.create (max n 1) in
      List.iteri (fun i p -> Indexed_heap.insert h i p) floats;
      let popped = List.init n (fun _ -> snd (Indexed_heap.pop_min h)) in
      popped = List.sort compare floats)

(* --- Stats ----------------------------------------------------------- *)

let test_stats_mean_var () =
  checkf "mean" 2.0 (Stats.mean [| 1.0; 2.0; 3.0 |]);
  checkf "variance" (2.0 /. 3.0) (Stats.variance [| 1.0; 2.0; 3.0 |]);
  checkf "total" 6.0 (Stats.total [| 1.0; 2.0; 3.0 |])

let test_stats_percentile () =
  let xs = [| 10.0; 20.0; 30.0; 40.0 |] in
  checkf "p0 = min" 10.0 (Stats.percentile xs 0.0);
  checkf "p100 = max" 40.0 (Stats.percentile xs 100.0);
  checkf "median interpolates" 25.0 (Stats.median xs)

let test_stats_jain () =
  checkf "equal rates are fair" 1.0 (Stats.jain_index [| 5.0; 5.0; 5.0 |]);
  checkf "one hog" (1.0 /. 3.0) (Stats.jain_index [| 9.0; 0.0; 0.0 |]);
  checkf "all zero treated fair" 1.0 (Stats.jain_index [| 0.0; 0.0 |])

let test_stats_gini () =
  checkf "equal -> 0" 0.0 (Stats.gini [| 2.0; 2.0; 2.0; 2.0 |]);
  checkb "hog -> high" true (Stats.gini [| 0.0; 0.0; 0.0; 10.0 |] > 0.7)

let test_stats_empty_raises () =
  Alcotest.check_raises "empty mean" (Invalid_argument "Stats.mean: empty sample")
    (fun () -> ignore (Stats.mean [||]))

let qcheck_jain_bounds =
  QCheck.Test.make ~name:"jain index in [1/n, 1]" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 20) (float_range 0.0 50.0))
    (fun xs ->
      let arr = Array.of_list xs in
      let j = Stats.jain_index arr in
      let n = float_of_int (Array.length arr) in
      j >= (1.0 /. n) -. 1e-9 && j <= 1.0 +. 1e-9)

(* --- Cdf -------------------------------------------------------------- *)

let test_cdf_accumulative () =
  let curve = Cdf.accumulative [| 1.0; 3.0; 6.0 |] in
  checki "3 points" 3 (Array.length curve);
  checkf "top tree carries 60%" 0.6 curve.(0).Cdf.y;
  checkf "all trees carry 100%" 1.0 curve.(2).Cdf.y;
  checkf "x ends at 1" 1.0 curve.(2).Cdf.x

let test_cdf_rank_value () =
  let curve = Cdf.rank_value [| 0.5; 0.9; 0.1 |] in
  checkf "descending head" 0.9 curve.(0).Cdf.y;
  checkf "descending tail" 0.1 curve.(2).Cdf.y

let test_cdf_top_share () =
  let rates = Array.init 10 (fun i -> if i = 0 then 90.0 else 10.0 /. 9.0) in
  checkf "top 10% carries 90%" 0.9 (Cdf.top_share rates ~fraction:0.1)

let test_cdf_sample () =
  let curve = Cdf.accumulative [| 2.0; 2.0 |] in
  let sampled = Cdf.sample curve [| 0.5; 1.0 |] in
  checkf "first half" 0.5 sampled.(0);
  checkf "full" 1.0 sampled.(1)

let qcheck_cdf_monotone =
  QCheck.Test.make ~name:"accumulative cdf is nondecreasing and ends at 1"
    ~count:200
    QCheck.(list_of_size (Gen.int_range 1 30) (float_range 0.001 10.0))
    (fun xs ->
      let curve = Cdf.accumulative (Array.of_list xs) in
      let ok = ref true in
      Array.iteri
        (fun i p ->
          if i > 0 && p.Cdf.y < curve.(i - 1).Cdf.y -. 1e-9 then ok := false)
        curve;
      !ok && abs_float (curve.(Array.length curve - 1).Cdf.y -. 1.0) < 1e-9)

(* --- Tableau ----------------------------------------------------------- *)

let test_tableau_render () =
  let t = Tableau.create ~title:"demo" [ "a"; "b" ] in
  Tableau.add_row t [ "x"; "1" ];
  Tableau.add_float_row t ~label:"y" [ 2.5 ];
  let s = Tableau.render t in
  checkb "has title" true (String.length s > 0);
  checkb "contains row" true
    (String.split_on_char '\n' s |> List.exists (fun l ->
         String.length l > 0 && String.contains l 'x'))

let test_tableau_arity_check () =
  let t = Tableau.create ~title:"demo" [ "a"; "b" ] in
  Alcotest.check_raises "arity" (Invalid_argument "Tableau.add_row: arity mismatch")
    (fun () -> Tableau.add_row t [ "only one" ])

let test_tableau_series () =
  let s = Tableau.series ~title:"t" ~columns:[ "x"; "y" ] [ [ 1.0; 2.0 ] ] in
  checkb "gnuplot style" true (String.length s > 0 && s.[0] = '#')

let test_tableau_surface () =
  let s =
    Tableau.surface ~title:"s" ~xlabel:"x" ~ylabel:"y" ~xs:[| 1.0; 2.0 |]
      ~ys:[| 1.0 |]
      [| [| 3.0; 4.0 |] |]
  in
  checkb "rendered" true (String.length s > 0)

(* --- Bitset ---------------------------------------------------------------- *)

(* random id sets drain in ascending order; ids at word edges and the
   last id included; a refill below the last drained word is seen *)
let test_bitset_drains_ascending () =
  let rng = Rng.create 8 in
  List.iter
    (fun n ->
      let set = Bitset.create n in
      for _ = 1 to 20 do
        let ids =
          List.sort_uniq compare
            (List.init (Rng.int rng (min n 70)) (fun _ -> Rng.int rng n))
        in
        let shuffled = Array.of_list ids in
        Rng.shuffle rng shuffled;
        Array.iter (Bitset.add set) shuffled;
        let drained = List.map (fun _ -> Bitset.pop_min set) ids in
        Alcotest.(check (list int)) "ascending" ids drained;
        Alcotest.(check int) "then empty" (-1) (Bitset.pop_min set)
      done)
    [ 1; 31; 32; 33; 64; 1000 ];
  let set = Bitset.create 100 in
  List.iter (Bitset.add set) [ 0; 31; 32; 63; 64; 99 ];
  Alcotest.(check int) "first" 0 (Bitset.pop_min set);
  Alcotest.(check int) "word end" 31 (Bitset.pop_min set);
  Alcotest.(check int) "word start" 32 (Bitset.pop_min set);
  Bitset.add set 1;
  Alcotest.(check int) "refill below the cursor" 1 (Bitset.pop_min set);
  Bitset.clear set;
  Alcotest.(check int) "cleared" (-1) (Bitset.pop_min set);
  List.iter
    (fun i ->
      match Bitset.add set i with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.failf "id %d accepted by a set over [0, 100)" i)
    [ -1; 100; 127 ]

let suite =
  [
    Alcotest.test_case "bitset drains ascending" `Quick
      test_bitset_drains_ascending;
    Alcotest.test_case "uf basic" `Quick test_uf_basic;
    Alcotest.test_case "uf transitive" `Quick test_uf_transitive;
    Alcotest.test_case "uf groups" `Quick test_uf_groups;
    Alcotest.test_case "uf reset" `Quick test_uf_reset;
    QCheck_alcotest.to_alcotest qcheck_uf_partition;
    Alcotest.test_case "heap ordering" `Quick test_heap_ordering;
    Alcotest.test_case "heap decrease" `Quick test_heap_decrease;
    Alcotest.test_case "heap insert-or-decrease" `Quick test_heap_insert_or_decrease;
    Alcotest.test_case "heap duplicate rejected" `Quick test_heap_duplicate_rejected;
    Alcotest.test_case "heap clear" `Quick test_heap_clear;
    QCheck_alcotest.to_alcotest qcheck_heapsort;
    Alcotest.test_case "stats mean/var" `Quick test_stats_mean_var;
    Alcotest.test_case "stats percentile" `Quick test_stats_percentile;
    Alcotest.test_case "stats jain" `Quick test_stats_jain;
    Alcotest.test_case "stats gini" `Quick test_stats_gini;
    Alcotest.test_case "stats empty raises" `Quick test_stats_empty_raises;
    QCheck_alcotest.to_alcotest qcheck_jain_bounds;
    Alcotest.test_case "cdf accumulative" `Quick test_cdf_accumulative;
    Alcotest.test_case "cdf rank-value" `Quick test_cdf_rank_value;
    Alcotest.test_case "cdf top share" `Quick test_cdf_top_share;
    Alcotest.test_case "cdf sample" `Quick test_cdf_sample;
    QCheck_alcotest.to_alcotest qcheck_cdf_monotone;
    Alcotest.test_case "tableau render" `Quick test_tableau_render;
    Alcotest.test_case "tableau arity" `Quick test_tableau_arity_check;
    Alcotest.test_case "tableau series" `Quick test_tableau_series;
    Alcotest.test_case "tableau surface" `Quick test_tableau_surface;
  ]
