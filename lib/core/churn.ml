type config = {
  arrival_rate : float;
  mean_holding_time : float;
  size_min : int;
  size_max : int;
  demand : float;
  sigma : float;
  horizon : float;
  admission_threshold : float;
}

let default_config =
  {
    arrival_rate = 1.0;
    mean_holding_time = 5.0;
    size_min = 3;
    size_max = 8;
    demand = 1.0;
    sigma = 30.0;
    horizon = 50.0;
    admission_threshold = infinity;
  }

type snapshot = {
  time : float;
  active_sessions : int;
  accepted : int;
  rejected : int;
  min_rate : float;
  mean_rate : float;
  throughput : float;
  max_congestion : float;
}

type result = {
  trace : snapshot list;
  final_congestion : float array;
}

type active = {
  tree : Otree.t;
  demand : float;
  receivers : int;
  departure : float;
}

let validate graph config =
  if config.arrival_rate <= 0.0 then invalid_arg "Churn.run: arrival_rate <= 0";
  if config.mean_holding_time <= 0.0 then
    invalid_arg "Churn.run: mean_holding_time <= 0";
  if config.size_min < 2 then invalid_arg "Churn.run: size_min < 2";
  if config.size_max < config.size_min then
    invalid_arg "Churn.run: size_max < size_min";
  if config.size_max > Graph.n_vertices graph then
    invalid_arg "Churn.run: size_max exceeds node count";
  if config.demand <= 0.0 then invalid_arg "Churn.run: demand <= 0";
  if config.sigma <= 0.0 then invalid_arg "Churn.run: sigma <= 0";
  if config.horizon <= 0.0 then invalid_arg "Churn.run: horizon <= 0"

let run rng graph config =
  validate graph config;
  let m = Graph.n_edges graph in
  let congestion = Array.make m 0.0 in
  (* d_e = (1+sigma)^(l_e) / c_e, rewritten on every edge [apply]
     touches *)
  let length id =
    let c = Graph.capacity graph id in
    if c <= 0.0 then infinity
    else (1.0 +. config.sigma) ** congestion.(id) /. c
  in
  let lens = Array.init m length in
  let apply sign (tree : Otree.t) demand =
    Otree.iter_usage tree (fun id count ->
        let c = Graph.capacity graph id in
        if c > 0.0 then begin
          congestion.(id) <-
            Float.max 0.0
              (congestion.(id) +. (sign *. float_of_int count *. demand /. c));
          lens.(id) <- length id
        end)
  in
  let actives : (int, active) Hashtbl.t = Hashtbl.create 64 in
  let accepted = ref 0 and rejected = ref 0 in
  let next_session_id = ref 0 in
  let snapshot time =
    let rates = ref [] in
    let throughput = ref 0.0 in
    Hashtbl.iter
      (fun _ a ->
        (* per-session rate = demand / own max congestion along tree *)
        let worst = ref 0.0 in
        Otree.iter_usage a.tree (fun id _ ->
            worst := Float.max !worst congestion.(id));
        let rate = if !worst > 0.0 then a.demand /. !worst else a.demand in
        rates := rate :: !rates;
        throughput := !throughput +. (float_of_int a.receivers *. rate))
      actives;
    let max_congestion = Array.fold_left Float.max 0.0 congestion in
    let rates = Array.of_list !rates in
    {
      time;
      active_sessions = Hashtbl.length actives;
      accepted = !accepted;
      rejected = !rejected;
      min_rate =
        (if Array.length rates = 0 then 0.0
         else Array.fold_left Float.min infinity rates);
      mean_rate = (if Array.length rates = 0 then 0.0 else Stats.mean rates);
      throughput = !throughput;
      max_congestion;
    }
  in
  let trace = ref [] in
  let record time = trace := snapshot time :: !trace in
  (* event loop: merge the Poisson arrival stream with pending
     departures, always processing the earlier event; departures are
     kept in an ordered set keyed by (time, session id) *)
  let module Events = Set.Make (struct
    type t = float * int
    let compare = compare
  end) in
  let departures = ref Events.empty in
  let next_arrival = ref (Rng.exponential rng ~mean:(1.0 /. config.arrival_rate)) in
  let arrive time =
    let size =
      config.size_min + Rng.int rng (config.size_max - config.size_min + 1)
    in
    let id = !next_session_id in
    incr next_session_id;
    let session =
      Session.random rng ~id ~topology_size:(Graph.n_vertices graph) ~size
        ~demand:config.demand
    in
    let overlay = Overlay.create graph Overlay.Ip session in
    let tree = Overlay.min_spanning_tree overlay lens in
    (* admission check before committing the load *)
    let admit =
      config.admission_threshold = infinity
      ||
      let worst = ref 0.0 in
      Otree.iter_usage tree (fun eid count ->
          let c = Graph.capacity graph eid in
          if c > 0.0 then
            worst :=
              Float.max !worst
                (congestion.(eid)
                +. (float_of_int count *. config.demand /. c)));
      !worst <= config.admission_threshold
    in
    if admit then begin
      incr accepted;
      apply 1.0 tree config.demand;
      let departure = time +. Rng.exponential rng ~mean:config.mean_holding_time in
      Hashtbl.replace actives id
        { tree; demand = config.demand; receivers = size - 1; departure };
      departures := Events.add (departure, id) !departures
    end
    else incr rejected
  in
  let depart id =
    match Hashtbl.find_opt actives id with
    | None -> ()
    | Some a ->
      apply (-1.0) a.tree a.demand;
      Hashtbl.remove actives id
  in
  let finished = ref false in
  while not !finished do
    match Events.min_elt_opt !departures with
    | Some (t, id) when t <= !next_arrival && t <= config.horizon ->
      departures := Events.remove (t, id) !departures;
      depart id;
      record t
    | _ ->
      if !next_arrival > config.horizon then finished := true
      else begin
        let t = !next_arrival in
        arrive t;
        record t;
        next_arrival :=
          t +. Rng.exponential rng ~mean:(1.0 /. config.arrival_rate)
      end
  done;
  { trace = List.rev !trace; final_congestion = congestion }

(* --- churn event traces for the re-solve engine ---------------------- *)

type event =
  | Session_join of { id : int; members : int array; demand : float }
  | Session_leave of { id : int }
  | Demand_change of { id : int; demand : float }
  | Capacity_change of { edge : int; capacity : float }

type timed = { at : float; event : event }

(* Events carry concrete member arrays (not a seed) so a written trace
   file replays identically regardless of generator version. *)

let poisson_trace rng graph config ~first_id =
  validate graph config;
  let module Events = Set.Make (struct
    type t = float * int

    let compare = compare
  end) in
  let departures = ref Events.empty in
  let out = ref [] in
  let next_id = ref first_id in
  let next_arrival =
    ref (Rng.exponential rng ~mean:(1.0 /. config.arrival_rate))
  in
  let finished = ref false in
  while not !finished do
    match Events.min_elt_opt !departures with
    | Some (t, id) when t <= !next_arrival && t <= config.horizon ->
      departures := Events.remove (t, id) !departures;
      out := { at = t; event = Session_leave { id } } :: !out
    | _ ->
      if !next_arrival > config.horizon then finished := true
      else begin
        let t = !next_arrival in
        let size =
          config.size_min + Rng.int rng (config.size_max - config.size_min + 1)
        in
        let id = !next_id in
        incr next_id;
        let s =
          Session.random rng ~id ~topology_size:(Graph.n_vertices graph) ~size
            ~demand:config.demand
        in
        out :=
          {
            at = t;
            event =
              Session_join
                { id; members = s.Session.members; demand = config.demand };
          }
          :: !out;
        departures :=
          Events.add
            (t +. Rng.exponential rng ~mean:config.mean_holding_time, id)
            !departures;
        next_arrival :=
          t +. Rng.exponential rng ~mean:(1.0 /. config.arrival_rate)
      end
  done;
  List.rev !out

let flash_crowd_trace rng graph config ~burst ~at ~first_id =
  validate graph config;
  if burst <= 0 then invalid_arg "Churn.flash_crowd_trace: burst must be > 0";
  if at < 0.0 || at > config.horizon then
    invalid_arg "Churn.flash_crowd_trace: burst time outside the horizon";
  (* the crowd arrives at 20x the nominal rate; departures drain at the
     usual exponential holding times *)
  let surge_gap = 1.0 /. (config.arrival_rate *. 20.0) in
  let evs = ref [] in
  let t = ref at in
  for i = 0 to burst - 1 do
    if !t <= config.horizon then begin
      let id = first_id + i in
      let size =
        config.size_min + Rng.int rng (config.size_max - config.size_min + 1)
      in
      let s =
        Session.random rng ~id ~topology_size:(Graph.n_vertices graph) ~size
          ~demand:config.demand
      in
      evs :=
        {
          at = !t;
          event =
            Session_join
              { id; members = s.Session.members; demand = config.demand };
        }
        :: !evs;
      let dep = !t +. Rng.exponential rng ~mean:config.mean_holding_time in
      if dep <= config.horizon then
        evs := { at = dep; event = Session_leave { id } } :: !evs;
      t := !t +. Rng.exponential rng ~mean:surge_gap
    end
  done;
  List.stable_sort (fun a b -> Float.compare a.at b.at) !evs

let with_perturbations rng graph ~p_demand ~p_capacity trace =
  if p_demand < 0.0 || p_demand >= 1.0 || p_capacity < 0.0 || p_capacity >= 1.0
  then invalid_arg "Churn.with_perturbations: probabilities must be in [0, 1)";
  let m = Graph.n_edges graph in
  let active : (int, float) Hashtbl.t = Hashtbl.create 16 in
  let pick_active () =
    let n = Hashtbl.length active in
    if n = 0 then None
    else begin
      let target = Rng.int rng n in
      let found = ref None and i = ref 0 in
      Hashtbl.iter
        (fun id d ->
          if !i = target then found := Some (id, d);
          incr i)
        active;
      !found
    end
  in
  let out = ref [] in
  List.iter
    (fun te ->
      (match te.event with
      | Session_join { id; demand; _ } -> Hashtbl.replace active id demand
      | Session_leave { id } -> Hashtbl.remove active id
      | Demand_change { id; demand } ->
        if Hashtbl.mem active id then Hashtbl.replace active id demand
      | Capacity_change _ -> ());
      out := te :: !out;
      if Rng.uniform rng < p_demand then begin
        match pick_active () with
        | None -> ()
        | Some (id, d) ->
          let demand = d *. (0.5 +. Rng.float rng 1.5) in
          Hashtbl.replace active id demand;
          out := { at = te.at; event = Demand_change { id; demand } } :: !out
      end;
      if m > 0 && Rng.uniform rng < p_capacity then begin
        let edge = Rng.int rng m in
        let c = Graph.capacity graph edge in
        if c > 0.0 then begin
          let capacity = c *. (0.5 +. Rng.float rng 1.5) in
          out := { at = te.at; event = Capacity_change { edge; capacity } } :: !out
        end
      end)
    trace;
  List.rev !out

(* --- trace file grammar: one event per line ------------------------- *)

let event_to_string = function
  | Session_join { id; members; demand } ->
    Printf.sprintf "join id=%d demand=%.17g members=%s" id demand
      (String.concat "," (List.map string_of_int (Array.to_list members)))
  | Session_leave { id } -> Printf.sprintf "leave id=%d" id
  | Demand_change { id; demand } ->
    Printf.sprintf "demand id=%d demand=%.17g" id demand
  | Capacity_change { edge; capacity } ->
    Printf.sprintf "capacity edge=%d capacity=%.17g" edge capacity

let timed_to_string t = Printf.sprintf "%.17g %s" t.at (event_to_string t.event)

let parse_fail line = failwith ("Churn.timed_of_string: cannot parse: " ^ line)

let timed_of_string line =
  let parts =
    String.split_on_char ' ' (String.trim line)
    |> List.filter (fun s -> s <> "")
  in
  match parts with
  | at :: kind :: rest ->
    let at = try float_of_string at with _ -> parse_fail line in
    let field key =
      let prefix = key ^ "=" in
      match List.find_opt (String.starts_with ~prefix) rest with
      | Some p ->
        String.sub p (String.length prefix) (String.length p - String.length prefix)
      | None -> parse_fail line
    in
    let int_field k = try int_of_string (field k) with _ -> parse_fail line in
    let float_field k =
      try float_of_string (field k) with _ -> parse_fail line
    in
    let event =
      match kind with
      | "join" ->
        let members =
          field "members" |> String.split_on_char ','
          |> List.map (fun s ->
                 try int_of_string s with _ -> parse_fail line)
          |> Array.of_list
        in
        Session_join { id = int_field "id"; members; demand = float_field "demand" }
      | "leave" -> Session_leave { id = int_field "id" }
      | "demand" ->
        Demand_change { id = int_field "id"; demand = float_field "demand" }
      | "capacity" ->
        Capacity_change
          { edge = int_field "edge"; capacity = float_field "capacity" }
      | _ -> parse_fail line
    in
    { at; event }
  | _ -> parse_fail line

let write_trace oc trace =
  List.iter
    (fun t ->
      output_string oc (timed_to_string t);
      output_char oc '\n')
    trace

let read_trace ic =
  let rec loop acc =
    match input_line ic with
    | exception End_of_file -> List.rev acc
    | line ->
      let line = String.trim line in
      if line = "" || line.[0] = '#' then loop acc
      else loop (timed_of_string line :: acc)
  in
  loop []
