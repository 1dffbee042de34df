(* The benchmark's workloads: how [overlay_cli serve] is started, which
   sessions stand throughout, and the churn the load generator sends.
   Everything the client sends is drawn here from the benchmark seed;
   the daemon only ever sees the resulting frames. *)

type loop =
  | Steady of int
      (** closed loop, one event outstanding; this many churn sessions
          stay active: once they have joined, every leave (the oldest
          session) is followed by a join *)
  | Crowd of int
      (** crowd cycles, a burst outstanding: this many joins written in
          one write, all reports read, then their leaves written and
          read the same way *)

type t = {
  name : string;
  nodes : int;
  algorithm : string;  (** [serve --algorithm] *)
  ratio : float;  (** [serve --ratio] *)
  sparsify : string;  (** [serve --sparsify] *)
  standing : int array;  (** member counts of the sessions that never leave *)
  loop : loop;
  pool : int;  (** distinct member sets the churn draws its joins from *)
  p_demand : float;  (** demand changes per join or leave *)
  p_capacity : float;  (** capacity changes per join or leave *)
  ramp : int;
      (** untimed ramp-up: leave/join swaps after the population has
          joined ([Steady]), or crowd cycles ([Crowd]) *)
  checkpoint_every : int;  (** timed events between objective checkpoints *)
  setups : int;  (** set-ups per run; [setup_s] is their median *)
}

(* [serve] builds its Waxman instance from this seed in every workload;
   the benchmark seed only changes the churn. *)
let instance_seed = 4

(* Setup A's instance: a third of events exhaust the warm ladder, so
   Engine's rungs and Max_flow's iterations carry the cost. *)
let paper_churn =
  {
    name = "paper_churn";
    nodes = 100;
    algorithm = "maxflow";
    ratio = 0.90;
    sparsify = "full";
    standing = [| 7; 5 |];
    loop = Steady 9;
    pool = 60;
    p_demand = 0.15;
    p_capacity = 0.05;
    ramp = 6;
    checkpoint_every = 100;
    setups = 3;
  }

(* The only workload with many frames per read, so Daemon queue and
   head-of-line wait show; every join also runs MCF's zeta MaxFlow. *)
let flash_mcf =
  {
    name = "flash_mcf";
    nodes = 100;
    algorithm = "mcf";
    ratio = 0.85;
    sparsify = "full";
    standing = [| 7; 5 |];
    loop = Crowd 6;
    pool = 60;
    p_demand = 0.0;
    p_capacity = 0.0;
    ramp = 2;
    checkpoint_every = 246;
    setups = 3;
  }

(* A 100-member overlay makes each MST call ~75x dearer than in
   [paper_churn]; no event falls back cold and Check's share grows.
   Whether an event needs a second rung depends on the churn sessions
   active, so second-rung events come in runs.  With 5 active, 35-48%
   of events were joins or second-rung and p50 sat at the top of the
   fast cluster, a few points above the gap; with 3 active, 23-33%. *)
let big_session =
  {
    name = "big_session";
    nodes = 300;
    algorithm = "maxflow";
    ratio = 0.80;
    sparsify = "k_nearest:10";
    standing = [| 100 |];
    loop = Steady 3;
    pool = 24;
    p_demand = 1.0;
    p_capacity = 1.0;
    ramp = 1;
    checkpoint_every = 40;
    setups = 3;
  }

let all = [ paper_churn; flash_mcf; big_session ]

let find name = List.find_opt (fun w -> w.name = name) all

(* The smoke size: the same shapes, small enough that all three plus
   their traced replays finish in seconds. *)
let smoke w =
  let w = { w with ramp = min w.ramp 1; checkpoint_every = 4; setups = 1 } in
  if w.name = "big_session" then { w with nodes = 120; standing = [| 30 |] }
  else w

let serve_args w ~socket =
  [
    "serve"; "--socket"; socket;
    "--seed"; string_of_int instance_seed;
    "--nodes"; string_of_int w.nodes;
    "--algorithm"; w.algorithm;
    "--ratio"; Printf.sprintf "%.2f" w.ratio;
    "--sparsify"; w.sparsify;
  ]

(* --- the instance serve builds, rebuilt in-process ---------------------- *)

let graph w =
  let rng = Rng.create instance_seed in
  (Waxman.generate rng { Waxman.default_params with n = w.nodes })
    .Topology.graph

(* Setup A's sessions on the same topology: [Setup.make_a] draws them
   from the topology's RNG stream, right after the routers. *)
let standing_sessions w =
  (Setup.make_a ~seed:instance_seed
     { Setup.default_a with n_nodes = w.nodes; session_sizes = w.standing })
    .Setup.sessions

let engine_config w =
  let solver, epsilon =
    match w.algorithm with
    | "mcf" ->
      ( Engine.Mcf
          {
            variant = Max_concurrent_flow.Paper;
            scaling = Max_concurrent_flow.Maxflow_weighted;
          },
        Max_concurrent_flow.ratio_to_epsilon w.ratio )
    | _ -> (Engine.Maxflow, Max_flow.ratio_to_epsilon w.ratio)
  in
  let sparsify =
    match Sparsify.of_string w.sparsify with
    | Ok s -> s
    | Error msg -> invalid_arg msg
  in
  { Engine.default_config with Engine.solver; epsilon; sparsify }

(* --- the churn the client sends ----------------------------------------- *)

(* Frames leave the client in batches: a batch is written in one write
   and all its reports are read before the next batch goes out.  A
   closed loop has batches of one event. *)
type inputs = {
  standing_joins : Churn.timed list;
  ramp : Churn.timed list list;  (** untimed batches, part of set-up *)
  timed : Churn.timed list list;  (** batches of the timed phase, in order *)
}

let churn_demand = 100.0

let join_event ?(demand = churn_demand) at id members =
  { Churn.at; event = Churn.Session_join { id; members; demand } }

(* Every event carries a timestamp of its own, which its report echoes:
   the standing joins at i/64 s, the churn from 1 s on. *)
let standing_joins w =
  Array.to_list
    (Array.mapi
       (fun i (s : Session.t) ->
         join_event ~demand:s.Session.demand
           (float_of_int i /. 64.0)
           s.Session.id s.Session.members)
       (standing_sessions w))

(* The member sets joins draw from.  The pool is the same for every
   benchmark seed, sizes 3 to 6 in equal shares, and a run covers it
   several times: runs of different seeds see the same sessions and
   differ in their order, their company and the perturbations.  With
   fresh random sessions per seed, events/s moved by ~25% from seed to
   seed. *)
let pool w =
  let rng = Rng.create (instance_seed + 1) in
  let n = Graph.n_vertices (graph w) in
  Array.init w.pool (fun i ->
      (Session.random rng ~id:i ~topology_size:n ~size:(3 + (i mod 4))
         ~demand:churn_demand)
        .Session.members)

(* The elements of [items] in blocks, each block a fresh permutation. *)
let permuted rng items =
  let order = Array.init (Array.length items) Fun.id in
  let pos = ref (Array.length order) in
  fun () ->
    if !pos = Array.length order then begin
      Rng.shuffle rng order;
      pos := 0
    end;
    incr pos;
    items.(order.(!pos - 1))

let rec split_at n = function
  | x :: rest when n > 0 ->
    let a, b = split_at (n - 1) rest in
    (x :: a, b)
  | l -> ([], l)

(* Closed-loop churn: [population] joins, then swaps (the oldest
   session leaves, a pool session joins).  After each join or leave
   come the perturbations due by then: [p_demand] demand changes and
   [p_capacity] capacity changes per join or leave, spaced evenly (a
   running sum, not a coin per step, so the mix of kinds is the same in
   every run).  A demand change rescales an active churn session's
   demand by a uniform factor in [0.5, 2), as [Churn.with_perturbations]
   does.  Capacity changes come in flaps: one rescales a random link
   the same way, the next restores it, so at most one link is off its
   base capacity.  Changes that persisted let each seed's run drift
   into its own instance.  Every event moves the clock on, a
   perturbation by 1/64 s.  The joins and swaps of the set-up draw from
   [setup_rng], the timed phase from [timed_rng]. *)
let steady w ~setup_rng ~timed_rng ~population ~first_id ~events =
  let g = graph w in
  let rng = ref setup_rng in
  let next = ref (permuted setup_rng (pool w)) in
  let active = Queue.create () and demands = Hashtbl.create 16 in
  let next_id = ref first_id and at = ref 1.0 in
  let tick () = at := !at +. (1.0 /. 64.0) in
  let due_demand = ref 0.0 and due_capacity = ref 0.0 in
  let flapped = ref None in
  let factor () = 0.5 +. Rng.float !rng 1.5 in
  let due acc p make =
    acc := !acc +. p;
    if !acc >= 1.0 then begin
      acc := !acc -. 1.0;
      tick ();
      [ { Churn.at = !at; event = make () } ]
    end
    else []
  in
  let demand_change () =
    let ids = Array.of_seq (Queue.to_seq active) in
    let id = ids.(Rng.int !rng (Array.length ids)) in
    let demand = Hashtbl.find demands id *. factor () in
    Hashtbl.replace demands id demand;
    Churn.Demand_change { id; demand }
  in
  let capacity_change () =
    match !flapped with
    | Some edge ->
      flapped := None;
      Churn.Capacity_change { edge; capacity = Graph.capacity g edge }
    | None ->
      let edge = Rng.int !rng (Graph.n_edges g) in
      flapped := Some edge;
      Churn.Capacity_change
        { edge; capacity = Graph.capacity g edge *. factor () }
  in
  let step event =
    at := !at +. Rng.exponential !rng ~mean:0.5;
    tick ();
    let head = { Churn.at = !at; event } in
    let d = due due_demand w.p_demand demand_change in
    head :: (d @ due due_capacity w.p_capacity capacity_change)
  in
  let join () =
    let id = !next_id in
    incr next_id;
    Queue.push id active;
    Hashtbl.replace demands id churn_demand;
    step (Churn.Session_join { id; members = !next (); demand = churn_demand })
  in
  let leave () =
    let id = Queue.pop active in
    Hashtbl.remove demands id;
    step (Churn.Session_leave { id })
  in
  let swap () =
    let l = leave () in
    l @ join ()
  in
  let fill = List.concat (List.init population (fun _ -> join ())) in
  let ramp = fill @ List.concat (List.init w.ramp (fun _ -> swap ())) in
  rng := timed_rng;
  next := permuted timed_rng (pool w);
  let rec timed acc n =
    if n >= events then acc
    else
      let s = swap () in
      timed (List.rev_append s acc) (n + List.length s)
  in
  let timed, _ = split_at events (List.rev (timed [] 0)) in
  (ramp, timed)

(* [events] timed events: the timed phase stops when its seconds are
   up, so the supply only has to outlast a much faster daemon.  The
   set-up's events are the same for every seed, so its cost is too:
   with seeded ramp-up joins, [setup_s] spread 25% from seed to seed. *)
let inputs w ~seed ~events =
  let setup_rng = Rng.create (instance_seed + 2) and rng = Rng.create seed in
  let first_id = Array.length w.standing in
  let one = List.map (fun e -> [ e ]) in
  match w.loop with
  | Steady population ->
    let ramp, timed =
      steady w ~setup_rng ~timed_rng:rng ~population ~first_id ~events
    in
    { standing_joins = standing_joins w; ramp = one ramp; timed = one timed }
  | Crowd size ->
    let setup_next = permuted setup_rng (pool w)
    and timed_next = permuted rng (pool w) in
    let cycle c =
      let next = if c < w.ramp then setup_next else timed_next in
      let at j = float_of_int (1 + c) +. (float_of_int j /. 64.0) in
      let id j = first_id + (c * size) + j in
      let joins =
        List.init size (fun j -> join_event (at j) (id j) (next ()))
      in
      let leaves =
        List.init size (fun j ->
            {
              Churn.at = at (size + j);
              event = Churn.Session_leave { id = id j };
            })
      in
      [ joins; leaves ]
    in
    let cycles = w.ramp + ((events + (2 * size) - 1) / (2 * size)) in
    let batches = List.concat (List.init cycles cycle) in
    let ramp, timed = split_at (2 * w.ramp) batches in
    { standing_joins = standing_joins w; ramp; timed }

let kind_name (e : Churn.event) =
  match e with
  | Churn.Session_join _ -> "join"
  | Churn.Session_leave _ -> "leave"
  | Churn.Demand_change _ -> "demand"
  | Churn.Capacity_change _ -> "capacity"

let kinds = [ "join"; "leave"; "demand"; "capacity" ]
