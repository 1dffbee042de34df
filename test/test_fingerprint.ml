(* Cross-commit solver fingerprints: pinned churn traces replayed
   through the engine, event by event.  Per event a pin records the
   objective's bits, the warm flag, the rung attempts and the
   solver-work counter deltas, so any change that moves a single
   iteration of either FPTAS shows up as a line diff against the pin.

   Two pins:
   - test/data/poisson_small.fingerprint: the Poisson churn trace on
     the CI instance (Waxman, 40 routers, seed 1, ratio 0.90, full
     overlays of at most 7 members), once with MaxFlow and once with
     MCF;
   - test/data/big_session_smoke.fingerprint: churnbench's big_session
     workload at its smoke size (Waxman, 120 routers, seed 4, one
     30-member standing session, k_nearest:10, MaxFlow at ratio 0.80),
     driven by a short trace of joins, leaves, demand changes and
     capacity changes, so sparsified overlays and trees of many pairs
     are pinned too.

   Regeneration (after an intentional change to solver arithmetic or
   tree ordering — say why in the commit), one pin at a time:
     OVERLAY_FINGERPRINT_REGEN=$PWD/test/data/poisson_small.fingerprint \
       dune exec test/test_main.exe -- test fingerprint 0
     OVERLAY_FINGERPRINT_REGEN=$PWD/test/data/big_session_smoke.fingerprint \
       dune exec test/test_main.exe -- test fingerprint 1 *)

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

let maxflow ratio = ("maxflow", Engine.Maxflow, Max_flow.ratio_to_epsilon ratio)

let mcf ratio =
  ( "mcf",
    Engine.Mcf
      {
        variant = Max_concurrent_flow.Paper;
        scaling = Max_concurrent_flow.Maxflow_weighted;
      },
    Max_concurrent_flow.ratio_to_epsilon ratio )

type pin = {
  trace : string;
  fingerprint : string;
  seed : int;  (** Waxman topology seed *)
  nodes : int;
  sparsify : Sparsify.t;
  solvers : (string * Engine.solver * float) list;
}

(* the instance [overlay_cli churn --seed 1 --nodes 40 --ratio 0.90]
   builds *)
let poisson_small =
  {
    trace = "poisson_small.trace";
    fingerprint = "poisson_small.fingerprint";
    seed = 1;
    nodes = 40;
    sparsify = Sparsify.full;
    solvers = [ maxflow 0.90; mcf 0.90 ];
  }

(* the instance [overlay_cli serve --seed 4 --nodes 120 --ratio 0.80
   --sparsify k_nearest:10] builds *)
let big_session_smoke =
  {
    trace = "big_session_smoke.trace";
    fingerprint = "big_session_smoke.fingerprint";
    seed = 4;
    nodes = 120;
    sparsify = Result.get_ok (Sparsify.of_string "k_nearest:10");
    solvers = [ maxflow 0.80 ];
  }

(* the pin's instance, replayed event by event *)
let fingerprint_lines pin trace =
  List.concat_map
    (fun (name, solver, epsilon) ->
      let rng = Rng.create pin.seed in
      let graph =
        (Waxman.generate rng { Waxman.default_params with n = pin.nodes })
          .Topology.graph
      in
      let config =
        { Engine.default_config with
          Engine.solver; epsilon; sparsify = pin.sparsify }
      in
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
    pin.solvers

let check_pin pin () =
  let lines = fingerprint_lines pin (read_trace (data_file pin.trace)) in
  match Sys.getenv_opt regen_env with
  | Some path ->
    let oc = open_out path in
    List.iter (fun l -> output_string oc (l ^ "\n")) lines;
    close_out oc;
    Printf.printf "regenerated %d fingerprint lines in %s\n"
      (List.length lines) path
  | None ->
    let pinned = read_lines (data_file pin.fingerprint) in
    Alcotest.(check int) "fingerprint line count" (List.length pinned)
      (List.length lines);
    List.iter2
      (fun want got -> Alcotest.(check string) "fingerprint line" want got)
      pinned lines

let suite =
  [
    Alcotest.test_case "poisson_small replay matches the pinned fingerprint"
      `Quick (check_pin poisson_small);
    Alcotest.test_case
      "big_session smoke replay matches the pinned fingerprint" `Quick
      (check_pin big_session_smoke);
  ]
