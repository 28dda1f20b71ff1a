module Graph = Netgraph.Graph

type fault =
  | Link_down of { at : float; u : int; v : int }
  | Link_up of { at : float; u : int; v : int }
  | Node_crash of { at : float; node : int }
  | Node_recover of { at : float; node : int }
  | Drop_in_flight of { at : float; u : int; v : int }

type t = {
  seed : int;
  index : int;
  n : int;
  jitter : float;
  faults : fault list;
}

let default_horizon = 48.0

let time_of = function
  | Link_down { at; _ }
  | Link_up { at; _ }
  | Node_crash { at; _ }
  | Node_recover { at; _ }
  | Drop_in_flight { at; _ } ->
      at

let by_time faults =
  List.stable_sort (fun a b -> Float.compare (time_of a) (time_of b)) faults

let quiescence t =
  List.fold_left (fun acc f -> Float.max acc (time_of f)) 0.0 t.faults

(* Child-stream derivation: the schedule's whole behaviour is a
   function of (seed, index).  split_nth child i depends only on the
   parent state and i, and the two further splits tag fixed domains,
   so the graph stream, the fault stream and the run stream are each
   pure functions of (seed, index) — regeneration at replay or shrink
   time reproduces them exactly. *)
let rngs ~seed ~index =
  let child = Sim.Rng.split_nth (Sim.Rng.create ~seed) index in
  let structure, run = Sim.Rng.split child in
  let graph_rng, fault_rng = Sim.Rng.split structure in
  (graph_rng, fault_rng, run)

(* The schedule's graph is a pure function of (n, seed, index), so it
   lives in the compiled-topology cache: a shrink run replays the same
   schedule dozens of times and rebuilds the graph exactly once. *)
let artifact_of t =
  Compile.Cache.find_or_build
    {
      Compile.Topology.family = "chaos-schedule";
      n = t.n;
      seed = t.seed;
      index = t.index;
      extra = t.n / 2;
    }
    (fun () ->
      let graph_rng, _, _ = rngs ~seed:t.seed ~index:t.index in
      Netgraph.Builders.random_connected graph_rng ~n:t.n ~extra_edges:(t.n / 2))

let graph_of t = Compile.Topology.graph (artifact_of t)

let run_rng t =
  let _, _, run = rngs ~seed:t.seed ~index:t.index in
  run

let cost t =
  if t.jitter <= 0.0 then Hardware.Cost_model.new_model ()
  else Hardware.Cost_model.uniform_random (run_rng t) ~c:t.jitter ~p:1.0

(* -- Generation ------------------------------------------------------- *)

let pick_edge rng edges = Sim.Rng.pick_array rng edges

let gen_dynamic rng ~graph ~edges ~n ~horizon =
  (* fault times stay below 3/4 of the horizon so flap/heal partners
     always fit strictly before it *)
  let stamp () = Sim.Rng.float rng (horizon *. 0.75) in
  let later down lead =
    down +. lead +. Sim.Rng.float rng (Float.max 0.1 (horizon -. down -. lead))
  in
  let groups = Sim.Rng.int_in rng 1 5 in
  let faults = ref [] in
  let push f = faults := f :: !faults in
  for _ = 1 to groups do
    match Sim.Rng.int rng 5 with
    | 0 ->
        (* link flap: down then back up *)
        let u, v = pick_edge rng edges in
        let down = stamp () in
        push (Link_down { at = down; u; v });
        push (Link_up { at = later down 0.5; u; v })
    | 1 ->
        let u, v = pick_edge rng edges in
        push (Link_down { at = stamp (); u; v })
    | 2 ->
        let node = Sim.Rng.int rng n in
        let down = stamp () in
        push (Node_crash { at = down; node });
        if Sim.Rng.bool rng then
          push (Node_recover { at = later down 0.5; node })
    | 3 ->
        (* partition-and-heal: cut every edge crossing a BFS-ball
           bisection, restore them all later *)
        let s = Sim.Rng.int rng n in
        let quarter = Stdlib.max 1 (n / 4) in
        let side_size = quarter + Sim.Rng.int rng quarter in
        let side = Array.make n false in
        List.iteri
          (fun i v -> if i < side_size then side.(v) <- true)
          (Netgraph.Traversal.bfs_order graph ~root:s);
        let cut =
          List.filter (fun (u, v) -> side.(u) <> side.(v)) (Graph.edges graph)
        in
        let down = stamp () in
        let up = later down 1.0 in
        List.iter (fun (u, v) -> push (Link_down { at = down; u; v })) cut;
        List.iter (fun (u, v) -> push (Link_up { at = up; u; v })) cut
    | _ ->
        let u, v = pick_edge rng edges in
        push (Drop_in_flight { at = stamp (); u; v })
  done;
  List.rev !faults

let gen_static rng ~edges ~n =
  (* everything fails before the protocol starts: the regime where the
     paper's per-component bounds are exact, so oracles tighten *)
  let groups = Sim.Rng.int_in rng 1 4 in
  let faults = ref [] in
  for _ = 1 to groups do
    if Sim.Rng.bool rng then begin
      let u, v = pick_edge rng edges in
      faults := Link_down { at = 0.0; u; v } :: !faults
    end
    else faults := Node_crash { at = 0.0; node = Sim.Rng.int rng n } :: !faults
  done;
  List.rev !faults

let generate ?(horizon = default_horizon) ~n ~seed ~index () =
  let _, fault_rng, _ = rngs ~seed ~index in
  let probe = { seed; index; n; jitter = 0.0; faults = [] } in
  let graph = graph_of probe in
  let edges = Array.of_list (Graph.edges graph) in
  (* fixed draw order — jitter, flavour, then the fault groups *)
  let jitter =
    if Sim.Rng.chance fault_rng 0.5 then Sim.Rng.float fault_rng 0.75 else 0.0
  in
  let static = Sim.Rng.chance fault_rng 0.2 in
  let faults =
    if static then gen_static fault_rng ~edges ~n
    else gen_dynamic fault_rng ~graph ~edges ~n ~horizon
  in
  { seed; index; n; jitter; faults = by_time faults }

(* -- Views ------------------------------------------------------------- *)

let compile t =
  List.map
    (fun fault ->
      match fault with
      | Link_down { at; u; v } ->
          Hardware.Fault_plan.Link_set { at; u; v; up = false }
      | Link_up { at; u; v } ->
          Hardware.Fault_plan.Link_set { at; u; v; up = true }
      | Node_crash { at; node } ->
          Hardware.Fault_plan.Node_set { at; node; alive = false }
      | Node_recover { at; node } ->
          Hardware.Fault_plan.Node_set { at; node; alive = true }
      | Drop_in_flight { at; u; v } ->
          Hardware.Fault_plan.Drop_in_flight { at; u; v })
    t.faults

(* A node_recover is meaningful only strictly after a node_crash of the
   same node: an orphan recover is at best a silent no-op and at worst
   (recover-at <= crash-at) a schedule that quietly leaves the node
   dead while reading as if it healed.  Reject both shapes — generated
   schedules always pair crash before recover, and the shrinker filters
   its candidates through this check, so only hand-edited repro files
   can trip it. *)
let well_formed t =
  let crashed = Hashtbl.create 8 in
  (* node -> earliest crash time *)
  List.fold_left
    (fun acc fault ->
      match (acc, fault) with
      | Error _, _ -> acc
      | Ok (), Node_crash { node; at } ->
          (match Hashtbl.find_opt crashed node with
          | Some t0 when t0 <= at -> ()
          | _ -> Hashtbl.replace crashed node at);
          Ok ()
      | Ok (), Node_recover { node; at } -> (
          match Hashtbl.find_opt crashed node with
          | Some t0 when t0 < at -> Ok ()
          | Some t0 ->
              Error
                (Printf.sprintf
                   "node_recover for node %d at %g must be strictly later \
                    than its node_crash at %g"
                   node at t0)
          | None ->
              Error
                (Printf.sprintf
                   "node_recover for node %d at %g has no preceding \
                    node_crash"
                   node at))
      | Ok (), (Link_down _ | Link_up _ | Drop_in_flight _) -> Ok ())
    (Ok ())
    (by_time t.faults)

let is_static t =
  t.faults <> []
  && List.for_all
       (function
         | Link_down { at; _ } | Node_crash { at; _ } -> at = 0.0
         | Link_up _ | Node_recover _ | Drop_in_flight _ -> false)
       t.faults

let surviving ~graph t =
  let n = Graph.n graph in
  let up = Hashtbl.create 64 in
  let key u v = (Stdlib.min u v, Stdlib.max u v) in
  List.iter (fun (u, v) -> Hashtbl.replace up (key u v) true) (Graph.edges graph);
  let set u v state =
    if Hashtbl.mem up (key u v) then Hashtbl.replace up (key u v) state
  in
  let dead = Array.make n false in
  List.iter
    (fun fault ->
      match fault with
      | Link_down { u; v; _ } -> set u v false
      | Link_up { u; v; _ } -> set u v true
      | Node_crash { node; _ } ->
          if not dead.(node) then begin
            dead.(node) <- true;
            List.iter (fun peer -> set node peer false) (Graph.neighbors graph node)
          end
      | Node_recover { node; _ } ->
          if dead.(node) then begin
            dead.(node) <- false;
            List.iter
              (fun peer -> if not dead.(peer) then set node peer true)
              (Graph.neighbors graph node)
          end
      | Drop_in_flight _ -> ())
    (by_time t.faults);
  let edges =
    List.filter (fun (u, v) -> Hashtbl.find up (key u v)) (Graph.edges graph)
  in
  (Graph.of_edges ~n edges, Array.map not dead)

(* -- Healing schedules ------------------------------------------------- *)

let edge_key u v = (Stdlib.min u v, Stdlib.max u v)

let heals t =
  let graph = graph_of t in
  let surviving_graph, alive = surviving ~graph t in
  Array.for_all Fun.id alive
  && List.length (Graph.edges surviving_graph)
     = List.length (Graph.edges graph)

let generate_healing ?(horizon = default_horizon) ~n ~seed ~index () =
  let s = generate ~horizon ~n ~seed ~index () in
  let graph = graph_of s in
  (* every destructive event is stamped below 0.75 * horizon, so heal
     events at 0.8 * horizon land after all damage but still strictly
     before the horizon — the quiescence budget is unchanged *)
  let heal_at = horizon *. 0.8 in
  let _, alive = surviving ~graph s in
  let recovers =
    List.filter_map
      (fun v ->
        if alive.(v) then None
        else Some (Node_recover { at = heal_at; node = v }))
      (List.init n Fun.id)
  in
  (* recovery re-ups crash-downed links by itself; only edges still
     missing after every node is back need an explicit Link_up *)
  let after, _ =
    surviving ~graph { s with faults = by_time (s.faults @ recovers) }
  in
  let up = Hashtbl.create 64 in
  List.iter
    (fun (u, v) -> Hashtbl.replace up (edge_key u v) ())
    (Graph.edges after);
  let ups =
    List.filter_map
      (fun (u, v) ->
        if Hashtbl.mem up (edge_key u v) then None
        else Some (Link_up { at = heal_at +. 0.25; u; v }))
      (Graph.edges graph)
  in
  { s with faults = by_time (s.faults @ recovers @ ups) }

(* -- Codec ------------------------------------------------------------- *)

(* 17 significant digits reproduce any finite double exactly, which is
   what makes the to_json round-trip byte-identical. *)
let ftos f = Printf.sprintf "%.17g" f

let fault_json = function
  | Link_down { at; u; v } ->
      Printf.sprintf "{\"kind\":\"link_down\",\"at\":%s,\"u\":%d,\"v\":%d}"
        (ftos at) u v
  | Link_up { at; u; v } ->
      Printf.sprintf "{\"kind\":\"link_up\",\"at\":%s,\"u\":%d,\"v\":%d}"
        (ftos at) u v
  | Node_crash { at; node } ->
      Printf.sprintf "{\"kind\":\"node_crash\",\"at\":%s,\"node\":%d}" (ftos at)
        node
  | Node_recover { at; node } ->
      Printf.sprintf "{\"kind\":\"node_recover\",\"at\":%s,\"node\":%d}"
        (ftos at) node
  | Drop_in_flight { at; u; v } ->
      Printf.sprintf "{\"kind\":\"drop_in_flight\",\"at\":%s,\"u\":%d,\"v\":%d}"
        (ftos at) u v

let to_json t =
  Printf.sprintf
    "{\"seed\":%d,\"index\":%d,\"n\":%d,\"jitter\":%s,\"faults\":[%s]}" t.seed
    t.index t.n (ftos t.jitter)
    (String.concat "," (List.map fault_json t.faults))

module J = Sim.Json

let ( let* ) = Result.bind

let fault_of_json j =
  let* kind = Result.bind (J.member "kind" j) J.to_string in
  let* at = Result.bind (J.member "at" j) J.to_float in
  let link make =
    let* u = Result.bind (J.member "u" j) J.to_int in
    let* v = Result.bind (J.member "v" j) J.to_int in
    Ok (make u v)
  in
  let node make =
    let* node = Result.bind (J.member "node" j) J.to_int in
    Ok (make node)
  in
  match kind with
  | "link_down" -> link (fun u v -> Link_down { at; u; v })
  | "link_up" -> link (fun u v -> Link_up { at; u; v })
  | "node_crash" -> node (fun node -> Node_crash { at; node })
  | "node_recover" -> node (fun node -> Node_recover { at; node })
  | "drop_in_flight" -> link (fun u v -> Drop_in_flight { at; u; v })
  | other -> Error (Printf.sprintf "unknown fault kind %S" other)

let of_json_value j =
  let* seed = Result.bind (J.member "seed" j) J.to_int in
  let* index = Result.bind (J.member "index" j) J.to_int in
  let* n = Result.bind (J.member "n" j) J.to_int in
  let* jitter = Result.bind (J.member "jitter" j) J.to_float in
  let* fault_list = Result.bind (J.member "faults" j) J.to_list in
  let* faults =
    List.fold_left
      (fun acc fj ->
        let* acc = acc in
        let* f = fault_of_json fj in
        Ok (f :: acc))
      (Ok []) fault_list
  in
  let t = { seed; index; n; jitter; faults = List.rev faults } in
  let* () = well_formed t in
  Ok t

let of_json src = Result.bind (J.parse src) of_json_value

let equal a b = a = b
