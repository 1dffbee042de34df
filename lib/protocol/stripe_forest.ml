type config = { stripes : int; out_degree_cap : int }

let default_config = { stripes = 4; out_degree_cap = 3 }

type stats = { max_depth : int; interior_violations : int }

let build rng graph overlay config =
  if config.stripes < 1 then invalid_arg "Stripe_forest.build: stripes < 1";
  if config.out_degree_cap < 1 then
    invalid_arg "Stripe_forest.build: out_degree_cap < 1";
  let session = Overlay.session overlay in
  let members = session.Session.members in
  let k = Array.length members in
  (* IP hop distances for the locality-aware parent choice *)
  let hop = Array.make_matrix k k 0 in
  Array.iteri
    (fun i m ->
      let d = Traverse.bfs graph ~source:m in
      Array.iteri
        (fun j m' ->
          if d.(m') < 0 then failwith "Stripe_forest.build: members disconnected";
          hop.(i).(j) <- d.(m'))
        members)
    members;
  (* stripe ownership: member slot i is interior-eligible in stripe
     (i mod stripes); the source (slot 0) is eligible everywhere *)
  let eligible slot stripe = slot = 0 || slot mod config.stripes = stripe in
  (* the trees' routes are fewest-hop *)
  let lens = Array.make (Graph.n_edges graph) 1.0 in
  let violations = ref 0 in
  let max_depth = ref 0 in
  let trees =
    List.init config.stripes (fun stripe ->
        let parent = Array.make k (-1) in
        let children = Array.make k 0 in
        let depth = Array.make k 0 in
        let in_tree = Array.make k false in
        in_tree.(0) <- true;
        (* random join order over the receivers *)
        let order = Array.init (k - 1) (fun i -> i + 1) in
        Rng.shuffle rng order;
        Array.iter
          (fun joiner ->
            (* candidate parents: tree members, interior-eligible, spare
               out-degree; closest by IP hops, ties by lower slot *)
            let pick restrict_eligible =
              let best = ref (-1) in
              for candidate = 0 to k - 1 do
                if
                  in_tree.(candidate)
                  && children.(candidate) < config.out_degree_cap
                  && ((not restrict_eligible) || eligible candidate stripe)
                then
                  if
                    !best < 0
                    || hop.(joiner).(candidate) < hop.(joiner).(!best)
                  then best := candidate
              done;
              !best
            in
            let choice =
              match pick true with
              | -1 ->
                (* all eligible interiors are full: SplitStream would
                   trigger its spare-capacity group; we relax
                   eligibility and count the violation *)
                incr violations;
                pick false
              | c -> c
            in
            let choice =
              if choice >= 0 then choice
              else begin
                (* every node at capacity: attach to the root anyway *)
                incr violations;
                0
              end
            in
            parent.(joiner) <- choice;
            children.(choice) <- children.(choice) + 1;
            depth.(joiner) <- depth.(choice) + 1;
            max_depth := max !max_depth depth.(joiner);
            in_tree.(joiner) <- true)
          order;
        let pairs =
          Array.init (k - 1) (fun i ->
              let v = i + 1 in
              (parent.(v), v))
        in
        Overlay.tree_of_pairs overlay ~pairs lens)
  in
  (trees, { max_depth = !max_depth; interior_violations = !violations })

let solve rng graph overlays config =
  let sessions = Array.map Overlay.session overlays in
  let assignments =
    Array.mapi
      (fun i overlay ->
        let trees, _ = build rng graph overlay config in
        let share =
          sessions.(i).Session.demand /. float_of_int (List.length trees)
        in
        List.map (fun tree -> (tree, share)) trees)
      overlays
  in
  Baseline.of_assignments graph sessions assignments
