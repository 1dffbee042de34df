(* Obs.Histogram: the log-bucketed latency sketch behind the engine's
   telemetry.  Pins the documented quantile relative-error bound across
   magnitudes, exact merge semantics, the zero/NaN bucket, registry
   idempotence, and domain-safety of concurrent recording. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 0.0))  (* exact equality *)

(* the documented bound: representatives sit at the geometric midpoint
   of a gamma = 2^(1/16) bucket, so any estimate is within
   2^(1/32) - 1 < 2.2% of the true sample *)
let rel_bound = 0.022

let close_rel what expect got =
  if Float.abs (got -. expect) > rel_bound *. Float.abs expect then
    Alcotest.failf "%s: %.17g not within %.1f%% of %.17g" what got
      (rel_bound *. 100.0) expect

(* the same nearest-rank convention Histogram.quantile documents *)
let rank p n = int_of_float ((p *. float_of_int (n - 1)) +. 0.5)

let probe_ps = [ 0.0; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ]

(* --- quantile error across magnitudes ---------------------------------- *)

let test_quantile_error () =
  let n = 5000 in
  (* deterministic log-uniform spread across 40 octaves (~1e-6 .. 1e6) *)
  let values =
    Array.init n (fun i ->
        Float.exp2 (-20.0 +. (40.0 *. float_of_int i /. float_of_int (n - 1))))
  in
  let h = Obs.Histogram.create "test_hist.err" in
  Array.iter (Obs.Histogram.record h) values;
  checki "every sample counted" n (Obs.Histogram.count h);
  let sorted = Array.copy values in
  Array.sort compare sorted;
  List.iter
    (fun p ->
      let exact = sorted.(rank p n) in
      close_rel
        (Printf.sprintf "p%.0f across magnitudes" (p *. 100.0))
        exact
        (Obs.Histogram.quantile h p))
    probe_ps;
  (* the fixed-point sum is exact to ~1e-9 per sample *)
  let exact_sum = Array.fold_left ( +. ) 0.0 values in
  checkb "sum within fixed-point resolution" true
    (Float.abs (Obs.Histogram.sum h -. exact_sum)
    <= float_of_int n *. 1e-9)

let test_quantile_millisecond_range () =
  (* the regime the engine actually records: fractions of a second *)
  let n = 1000 in
  let values =
    Array.init n (fun i -> 1e-4 +. (float_of_int i *. 3.7e-5))
  in
  let h = Obs.Histogram.create "test_hist.ms" in
  Array.iter (Obs.Histogram.record h) values;
  let sorted = Array.copy values in
  Array.sort compare sorted;
  List.iter
    (fun p ->
      close_rel
        (Printf.sprintf "p%.0f in the ms regime" (p *. 100.0))
        sorted.(rank p n)
        (Obs.Histogram.quantile h p))
    probe_ps

(* --- merge -------------------------------------------------------------- *)

let test_merge () =
  let whole = Obs.Histogram.create "test_hist.whole" in
  let evens = Obs.Histogram.create "test_hist.evens" in
  let odds = Obs.Histogram.create "test_hist.odds" in
  for i = 0 to 999 do
    let v = 0.003 *. float_of_int (i + 1) in
    Obs.Histogram.record whole v;
    Obs.Histogram.record (if i mod 2 = 0 then evens else odds) v
  done;
  Obs.Histogram.record whole 0.0;
  Obs.Histogram.record odds 0.0;
  Obs.Histogram.merge ~into:evens odds;
  checki "merged count = whole count" (Obs.Histogram.count whole)
    (Obs.Histogram.count evens);
  (* same multiset of fixed-point increments: sums agree exactly *)
  checkf "merged sum = whole sum (bit-exact)" (Obs.Histogram.sum whole)
    (Obs.Histogram.sum evens);
  List.iter
    (fun p ->
      checkf
        (Printf.sprintf "merged p%.0f = whole p%.0f" (p *. 100.0) (p *. 100.0))
        (Obs.Histogram.quantile whole p)
        (Obs.Histogram.quantile evens p))
    probe_ps;
  (* self-merge must not double the contents *)
  let before = Obs.Histogram.count evens in
  Obs.Histogram.merge ~into:evens evens;
  checki "self-merge is a no-op" before (Obs.Histogram.count evens)

(* --- edge cases --------------------------------------------------------- *)

let test_empty () =
  let h = Obs.Histogram.create "test_hist.empty" in
  checki "empty count" 0 (Obs.Histogram.count h);
  checkf "empty sum" 0.0 (Obs.Histogram.sum h);
  checkf "empty quantile" 0.0 (Obs.Histogram.quantile h 0.5);
  let s = Obs.Histogram.snapshot h in
  checki "empty snapshot count" 0 s.Obs.Histogram.s_count;
  checkb "empty snapshot has no buckets" true (s.Obs.Histogram.s_buckets = []);
  checkb "p out of range raises" true
    (try
       ignore (Obs.Histogram.quantile h 1.5);
       false
     with Invalid_argument _ -> true)

let test_single_sample () =
  let h = Obs.Histogram.create "test_hist.single" in
  Obs.Histogram.record h 3.7;
  checki "one sample" 1 (Obs.Histogram.count h);
  List.iter
    (fun p ->
      close_rel "single-sample quantile" 3.7 (Obs.Histogram.quantile h p))
    probe_ps;
  let s = Obs.Histogram.snapshot h in
  checkf "snapshot min = max for one sample" s.Obs.Histogram.s_min
    s.Obs.Histogram.s_max;
  close_rel "snapshot min near the sample" 3.7 s.Obs.Histogram.s_min

let test_zeros_bucket () =
  let h = Obs.Histogram.create "test_hist.zeros" in
  Obs.Histogram.record h 0.0;
  Obs.Histogram.record h (-5.0);
  Obs.Histogram.record h Float.nan;
  Obs.Histogram.record h 2.0;
  checki "zeros and the positive sample all counted" 4
    (Obs.Histogram.count h);
  let s = Obs.Histogram.snapshot h in
  checki "three in the zeros bucket" 3 s.Obs.Histogram.s_zeros;
  checkf "zeros dominate the median" 0.0 (Obs.Histogram.quantile h 0.5);
  close_rel "top quantile sees the positive sample" 2.0
    (Obs.Histogram.quantile h 1.0);
  checkf "snapshot min is 0 when the zeros bucket is occupied" 0.0
    s.Obs.Histogram.s_min;
  Obs.Histogram.reset h;
  checki "reset empties" 0 (Obs.Histogram.count h)

let test_snapshot_structure () =
  let h = Obs.Histogram.create "test_hist.snap" in
  for i = 1 to 100 do
    Obs.Histogram.record h (float_of_int i)
  done;
  let s = Obs.Histogram.snapshot h in
  checki "snapshot count" 100 s.Obs.Histogram.s_count;
  let bucket_total =
    List.fold_left
      (fun acc (b : Obs.Histogram.bucket) -> acc + b.Obs.Histogram.b_count)
      0 s.Obs.Histogram.s_buckets
  in
  checki "bucket counts account for every positive sample" 100 bucket_total;
  List.iter
    (fun (b : Obs.Histogram.bucket) ->
      checkb "bucket bounds ordered" true
        (b.Obs.Histogram.b_lo < b.Obs.Histogram.b_hi);
      checkb "bucket non-empty in snapshot" true (b.Obs.Histogram.b_count > 0))
    s.Obs.Histogram.s_buckets;
  let ascending =
    let rec go = function
      | (a : Obs.Histogram.bucket) :: (b : Obs.Histogram.bucket) :: rest ->
        a.Obs.Histogram.b_hi <= b.Obs.Histogram.b_lo +. 1e-12 && go (b :: rest)
      | _ -> true
    in
    go s.Obs.Histogram.s_buckets
  in
  checkb "buckets ascending and disjoint" true ascending;
  close_rel "snapshot min near 1" 1.0 s.Obs.Histogram.s_min;
  close_rel "snapshot max near 100" 100.0 s.Obs.Histogram.s_max

(* --- registry ----------------------------------------------------------- *)

let test_registry () =
  let h = Obs.Histogram.make ~doc:"test histogram" "test_hist.reg" in
  let h' = Obs.Histogram.make "test_hist.reg" in
  checkb "make is idempotent by name (same cell)" true (h == h');
  Obs.Histogram.reset h;
  Obs.Histogram.record h 1.0;
  checki "the alias sees the same contents" 1 (Obs.Histogram.count h');
  (match Obs.Registry.find_histogram "test_hist.reg" with
  | Some found -> checkb "find_histogram returns the cell" true (found == h)
  | None -> Alcotest.fail "find_histogram missed a registered histogram");
  checkb "find_histogram does not create" true
    (Obs.Registry.find_histogram "test_hist.never_created" = None);
  let listed =
    List.filter
      (fun (n, _, _) -> n = "test_hist.reg")
      (Obs.Registry.histograms ())
  in
  (match listed with
  | [ (_, doc, (s : Obs.Histogram.snapshot)) ] ->
    Alcotest.(check string) "doc kept from first make" "test histogram" doc;
    checki "registry snapshots the live contents" 1 s.Obs.Histogram.s_count
  | _ -> Alcotest.fail "registry listing missing/duplicated the histogram");
  let names = List.map (fun (n, _, _) -> n) (Obs.Registry.histograms ()) in
  checkb "registry listing is sorted" true (List.sort compare names = names);
  (* create (unregistered) never enters the registry *)
  let anon = Obs.Histogram.create "test_hist.reg" in
  checkb "create does not replace the registered cell" true
    (Obs.Registry.find_histogram "test_hist.reg" = Some h);
  checkb "create returns a distinct cell" true (not (anon == h));
  Obs.Registry.reset_all ();
  checki "reset_all empties registered histograms" 0 (Obs.Histogram.count h)

(* --- domain safety ------------------------------------------------------ *)

let test_parallel_record () =
  let h = Obs.Histogram.create "test_hist.par" in
  let n = 20_000 in
  (* four domains, each recording a quarter of the samples *)
  List.iter Domain.join
    (List.init 4 (fun w ->
         Domain.spawn (fun () ->
             for i = w * n / 4 to ((w + 1) * n / 4) - 1 do
               Obs.Histogram.record h (1e-3 *. float_of_int (i + 1))
             done)));
  checki "no lost updates under 4 domains" n (Obs.Histogram.count h);
  (* a serially-built twin over the same multiset: atomics commute, so
     count, sum and every quantile agree exactly *)
  let serial = Obs.Histogram.create "test_hist.par_serial" in
  for i = 0 to n - 1 do
    Obs.Histogram.record serial (1e-3 *. float_of_int (i + 1))
  done;
  checkf "sum agrees bit-exactly with serial" (Obs.Histogram.sum serial)
    (Obs.Histogram.sum h);
  List.iter
    (fun p ->
      checkf "quantile agrees exactly with serial"
        (Obs.Histogram.quantile serial p)
        (Obs.Histogram.quantile h p))
    probe_ps

let suite =
  [
    Alcotest.test_case "quantile error bound across magnitudes" `Quick
      test_quantile_error;
    Alcotest.test_case "quantile error bound (ms regime)" `Quick
      test_quantile_millisecond_range;
    Alcotest.test_case "merge is exact" `Quick test_merge;
    Alcotest.test_case "empty histogram" `Quick test_empty;
    Alcotest.test_case "single sample" `Quick test_single_sample;
    Alcotest.test_case "zeros bucket" `Quick test_zeros_bucket;
    Alcotest.test_case "snapshot structure" `Quick test_snapshot_structure;
    Alcotest.test_case "registry idempotence and reset" `Quick test_registry;
    Alcotest.test_case "parallel recording is lossless" `Quick
      test_parallel_record;
  ]
