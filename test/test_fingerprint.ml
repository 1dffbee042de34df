(* Cross-commit solver fingerprint: the pinned Poisson churn trace
   replayed through the engine on the CI instance (Waxman, 40 routers,
   seed 1, ratio 0.90), once with MaxFlow and once with MCF.  Per event
   the pin records the objective's bits, the warm flag, the rung
   attempts and the solver-work counter deltas, so any change that
   moves a single iteration of either FPTAS shows up as a line diff
   against test/data/poisson_small.fingerprint.

   Regeneration (after an intentional change to solver arithmetic or
   tree ordering — say why in the commit):
     OVERLAY_FINGERPRINT_REGEN=$PWD/test/data/poisson_small.fingerprint \
       dune exec test/test_main.exe -- test fingerprint *)

let regen_env = "OVERLAY_FINGERPRINT_REGEN"

(* under [dune runtest] the cwd is the test sandbox (fixtures under
   data/); under [dune exec] from the repo root they sit under test/data *)
let data_file name =
  let local = Filename.concat "data" name in
  if Sys.file_exists local then local
  else Filename.concat "test" local

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let read_trace path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Churn.read_trace ic)

let kind_name = function
  | Churn.Session_join _ -> "join"
  | Churn.Session_leave _ -> "leave"
  | Churn.Demand_change _ -> "demand"
  | Churn.Capacity_change _ -> "capacity"

let c_iterations = Obs.Counter.make "maxflow.iterations"
let c_phases = Obs.Counter.make "mcf.phases"
let c_mst_ops = Obs.Counter.make "overlay.mst_ops"

let solvers =
  [
    ("maxflow", Engine.Maxflow, Max_flow.ratio_to_epsilon 0.90);
    ( "mcf",
      Engine.Mcf
        {
          variant = Max_concurrent_flow.Paper;
          scaling = Max_concurrent_flow.Maxflow_weighted;
        },
      Max_concurrent_flow.ratio_to_epsilon 0.90 );
  ]

(* the instance [overlay_cli churn --seed 1 --nodes 40 --ratio 0.90]
   builds, replayed event by event *)
let fingerprint_lines trace =
  List.concat_map
    (fun (name, solver, epsilon) ->
      let rng = Rng.create 1 in
      let graph =
        (Waxman.generate rng { Waxman.default_params with n = 40 })
          .Topology.graph
      in
      let config = { Engine.default_config with Engine.solver; epsilon } in
      let t = Engine.create ~config graph [||] in
      List.mapi
        (fun i te ->
          let it0 = Obs.Counter.value c_iterations
          and ph0 = Obs.Counter.value c_phases
          and mst0 = Obs.Counter.value c_mst_ops in
          let r = Engine.apply t te in
          Printf.sprintf
            "%s %d %s obj=%h warm=%b attempts=%d iterations=%d phases=%d \
             mst_ops=%d"
            name i (kind_name te.Churn.event) r.Engine.objective r.Engine.warm
            r.Engine.attempts
            (Obs.Counter.value c_iterations - it0)
            (Obs.Counter.value c_phases - ph0)
            (Obs.Counter.value c_mst_ops - mst0))
        trace)
    solvers

let test_poisson_small_pin () =
  let lines =
    fingerprint_lines (read_trace (data_file "poisson_small.trace"))
  in
  match Sys.getenv_opt regen_env with
  | Some path ->
    let oc = open_out path in
    List.iter (fun l -> output_string oc (l ^ "\n")) lines;
    close_out oc;
    Printf.printf "regenerated %d fingerprint lines in %s\n"
      (List.length lines) path
  | None ->
    let pinned = read_lines (data_file "poisson_small.fingerprint") in
    Alcotest.(check int) "fingerprint line count" (List.length pinned)
      (List.length lines);
    List.iter2
      (fun want got -> Alcotest.(check string) "fingerprint line" want got)
      pinned lines

let suite =
  [
    Alcotest.test_case "poisson_small replay matches the pinned fingerprint"
      `Quick test_poisson_small_pin;
  ]
