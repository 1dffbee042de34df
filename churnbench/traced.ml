(* The traced run: the instance and engine configuration [serve] builds,
   rebuilt in-process, fed the identical frames.  Spans go around the
   calls into each layer's public functions from here; nothing is
   traced inside the program.  Per event:

     event                       root span
       wire.encode               Wire_event.to_frame + Wire.encode
       wire.decode               Wire.decode + Wire_event.of_frame
       engine.apply              Engine.apply
         solver                  the report's solve_s
         check                   the report's certify_s
       report.encode             Wire_event.report_to_frame + Wire.encode
       report.decode             Wire.decode

   Registry counters and [Gc] counters are read around [Engine.apply]. *)

type span = {
  event : int;  (** timed-event index, shared by all spans of one event *)
  name : string;
  parent : string;  (** "" for the root *)
  start : float;  (** s, [Obs.now] *)
  dur : float;  (** s *)
}

(* Counters whose per-event deltas the trace records. *)
let counter_names =
  [
    "maxflow.iterations"; "mcf.phases"; "overlay.mst_ops"; "overlay.weight_ops";
    "engine.cold"; "graph.dijkstra_runs";
  ]

type event = {
  kind : string;
  wire : float;  (** event and report encode + decode *)
  apply : float;
  solve : float;
  certify : float;
  bytes : int;  (** event frame + report frame *)
  warm : bool;
  attempts : int;
  deltas : int array;  (** parallel to [counter_names] *)
  minor_words : float;
  major_collections : int;
}

type result = {
  events : event array;  (** the timed events, in order *)
  spans : span list;
  objectives : float array;  (** objective after each timed event *)
  final_objective : float;
  build_ms : float;  (** standing sessions' overlays, built directly *)
}

let now = Obs.now

let counter name =
  match Obs.Registry.find_counter name with
  | Some c -> c
  | None -> failwith ("no registry counter " ^ name)

let decode_one buf =
  match Wire.decode buf ~pos:0 ~len:(Bytes.length buf) with
  | Wire.Frame (f, _) -> f
  | Wire.Need _ | Wire.Corrupt _ -> failwith "traced replay: frame did not decode"

let median_of f n =
  let a = Array.init n (fun _ -> f ()) in
  Array.sort compare a;
  a.(n / 2)

let build_ms (w : Workloads.t) =
  let config = Workloads.engine_config w in
  let graph = Workloads.graph w in
  let sessions = Workloads.standing_sessions w in
  median_of
    (fun () ->
      let t0 = now () in
      Array.iter
        (fun s ->
          ignore
            (Overlay.create ~sparsify:config.Engine.sparsify graph
               config.Engine.mode s))
        sessions;
      1e3 *. (now () -. t0))
    3

let run (w : Workloads.t) ~setup ~timed =
  let engine =
    Engine.create ~config:(Workloads.engine_config w) (Workloads.graph w) [||]
  in
  let counters = Array.of_list (List.map counter counter_names) in
  let spans = ref [] and seq = ref 0 in
  let apply_untraced te =
    let f = decode_one (Wire.encode (Wire_event.to_frame te)) in
    match Wire_event.of_frame f with
    | Some te' ->
      incr seq;
      ignore (Engine.apply engine te')
    | None -> failwith "traced replay: not an event frame"
  in
  List.iter apply_untraced setup;
  let traced i (te : Churn.timed) =
    let span name parent t0 t1 =
      spans := { event = i; name; parent; start = t0; dur = t1 -. t0 } :: !spans
    in
    let t_root = now () in
    let ev_buf = Wire.encode (Wire_event.to_frame te) in
    let t1 = now () in
    let te' =
      match Wire_event.of_frame (decode_one ev_buf) with
      | Some te' -> te'
      | None -> failwith "traced replay: not an event frame"
    in
    let t2 = now () in
    let c0 = Array.map Obs.Counter.value counters in
    let minor0 = Gc.minor_words () in
    let major0 = (Gc.quick_stat ()).Gc.major_collections in
    let t3 = now () in
    let r = Engine.apply engine te' in
    let t4 = now () in
    let minor_words = Gc.minor_words () -. minor0 in
    let major_collections = (Gc.quick_stat ()).Gc.major_collections - major0 in
    let deltas = Array.mapi (fun k c -> Obs.Counter.value c - c0.(k)) counters in
    incr seq;
    let t5 = now () in
    let rep_buf = Wire.encode (Wire_event.report_to_frame ~seq:!seq r) in
    let t6 = now () in
    ignore (decode_one rep_buf);
    let t7 = now () in
    span "wire.encode" "event" t_root t1;
    span "wire.decode" "event" t1 t2;
    span "engine.apply" "event" t3 t4;
    span "solver" "engine.apply" t3 (t3 +. r.Engine.solve_s);
    span "check" "engine.apply" (t3 +. r.Engine.solve_s)
      (t3 +. r.Engine.solve_s +. r.Engine.certify_s);
    span "report.encode" "event" t5 t6;
    span "report.decode" "event" t6 t7;
    span "event" "" t_root t7;
    ( {
        kind = Workloads.kind_name te.Churn.event;
        wire = (t1 -. t_root) +. (t2 -. t1) +. (t6 -. t5) +. (t7 -. t6);
        apply = t4 -. t3;
        solve = r.Engine.solve_s;
        certify = r.Engine.certify_s;
        bytes = Bytes.length ev_buf + Bytes.length rep_buf;
        warm = r.Engine.warm;
        attempts = r.Engine.attempts;
        deltas;
        minor_words;
        major_collections;
      },
      r.Engine.objective )
  in
  let results = List.mapi traced timed in
  {
    events = Array.of_list (List.map fst results);
    spans = List.rev !spans;
    objectives = Array.of_list (List.map snd results);
    final_objective = Engine.objective engine;
    build_ms = build_ms w;
  }

(* [count name e] is the change of registry counter [name] across
   event [e]'s [Engine.apply]; [delta result name] sums it over the run. *)
let count name e =
  let rec index k = function
    | [] -> invalid_arg name
    | n :: rest -> if n = name then k else index (k + 1) rest
  in
  e.deltas.(index 0 counter_names)

let delta result name =
  Array.fold_left (fun acc e -> acc + count name e) 0 result.events

let write_spans path spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"event\":%d,\"span\":%s,\"parent\":%s,\"start_us\":%.3f,\
             \"dur_us\":%.3f}\n"
            s.event
            (Json_export.escape_string s.name)
            (Json_export.escape_string s.parent)
            (1e6 *. s.start) (1e6 *. s.dur))
        spans)
