type row = {
  key : string;
  name : n:int -> string;
  run :
    ?registry:Hardware.Registry.t ->
    ?trace:Sim.Trace.t ->
    n:int ->
    unit ->
    Hardware.Monitor.report list;
}

let scale_threshold = 8192
let scale_form ~n = n > scale_threshold

let bench_art ~n =
  Compile.Cache.random_connected ~seed:42 ~n ~extra_edges:(n / 2)

let bench_graph ~n = Compile.Topology.graph (bench_art ~n)

let broadcast_config ?registry ?trace () =
  { (Core.Broadcast.default_config ()) with registry; trace }

let bpaths ~config ~n =
  Parallel.Sweep.broadcast Parallel.Sweep.Bpaths ~config (bench_art ~n) ~root:0

let flood =
  {
    key = "flood";
    name = (fun ~n -> Printf.sprintf "e1/flooding-broadcast-n%d" n);
    run =
      (fun ?registry ?trace ~n () ->
        ignore
          (Core.Flooding.run
             ~config:(broadcast_config ?registry ?trace ())
             ~graph:(bench_graph ~n) ~root:0 ()
            : Core.Broadcast.result);
        []);
  }

let branching_paths =
  {
    key = "bpaths";
    name = (fun ~n -> Printf.sprintf "e1/branching-paths-broadcast-n%d" n);
    run =
      (fun ?registry ?trace ~n () ->
        let r = bpaths ~config:(broadcast_config ?registry ?trace ()) ~n in
        let syscalls = r.Core.Broadcast.syscalls in
        [
          Hardware.Monitor.theorem2_broadcast ~n ~syscalls
            ~time:r.Core.Broadcast.time ();
          Hardware.Monitor.one_way_delivery ~n ~syscalls;
        ]);
  }

let election =
  {
    key = "election";
    name =
      (fun ~n ->
        if scale_form ~n then Printf.sprintf "e6/election-rand-n%d" n
        else Printf.sprintf "e6/election-ring%d" n);
    run =
      (fun ?registry ?trace ~n () ->
        let graph =
          if scale_form ~n then bench_graph ~n
          else Compile.Topology.graph (Compile.Cache.ring ~n)
        in
        let o = Core.Election.run ?registry ?trace ~graph () in
        [
          Hardware.Monitor.election_budget ~n
            ~election_syscalls:o.Core.Election.election_syscalls;
          Hardware.Monitor.dmax_ceiling ~dmax:((2 * n) + 2)
            ~max_header:o.Core.Election.max_route;
        ]);
  }

(* Below the threshold: every node an origin, one round from n=1024 up
   (a round is Theta(n) broadcasts of Theta(n) system calls), two
   below.  Above it: 4 evenly spaced origins over a preseeded database
   — every node still records link state, merges and relays;
   convergence means every node holds each origin's freshest view. *)
let scale_origin_count = 4
let maintenance_rounds ~n = if n >= 1024 then 1 else 2

let maintenance =
  {
    key = "maintenance";
    name =
      (fun ~n ->
        if scale_form ~n then
          Printf.sprintf "e5/maintenance-origins%d-n%d" scale_origin_count n
        else
          Printf.sprintf "e5/maintenance-%d-rounds-n%d" (maintenance_rounds ~n)
            n);
    run =
      (fun ?registry ?trace ~n () ->
        let params = Core.Topo_maintenance.default_params () in
        let params =
          if scale_form ~n then
            {
              params with
              max_rounds = 2;
              preseed = true;
              origins =
                Some
                  (List.init scale_origin_count (fun i ->
                       i * (n / scale_origin_count)));
            }
          else { params with max_rounds = maintenance_rounds ~n }
        in
        ignore
          (Core.Topo_maintenance.run
             ~params:{ params with registry; trace }
             ~graph:
               (Compile.Topology.graph
                  (Compile.Cache.random_connected ~seed:1 ~n
                     ~extra_edges:(n / 2)))
             ~events:[] ()
            : Core.Topo_maintenance.outcome);
        []);
  }

(* A branching-paths broadcast that loses one subtree to a mid-wave
   link cut and heals it through the DESIGN.md §16 ack/retransmit
   layer: the link (root, first neighbour) goes down at t=0.5 — after
   the root's sends but before every delivery completes — and comes
   back at t=3.0, well inside the first backoff delay, so exactly the
   retransmit wave(s) the watchdog schedules complete the broadcast. *)
let recover =
  {
    key = "recover";
    name = (fun ~n -> Printf.sprintf "recover/bpaths-heal-n%d" n);
    run =
      (fun ?registry ?trace ~n () ->
        let v = List.hd (Netgraph.Graph.neighbors (bench_graph ~n) 0) in
        let config =
          {
            (broadcast_config ?registry ?trace ()) with
            chaos =
              Some
                [
                  Hardware.Fault_plan.Link_set
                    { at = 0.5; u = 0; v; up = false };
                  Hardware.Fault_plan.Link_set { at = 3.0; u = 0; v; up = true };
                ];
            recover = Some (Hardware.Recover.default ~n);
          }
        in
        ignore (bpaths ~config ~n : Core.Broadcast.result);
        []);
  }

let rows = [ flood; branching_paths; election; maintenance; recover ]
let find key = List.find_opt (fun r -> r.key = key) rows

(* -- the counter golden ------------------------------------------------ *)

let counters =
  [
    ("syscalls", "net.syscalls");
    ("hops", "net.hops");
    ("drops", "net.drops");
    ("dropped_in_flight", "net.dropped_in_flight");
    ("retransmits", "recover.retransmits");
    ("restarts", "recover.restarts");
  ]

let latency_fields lat =
  let module L = Query.Latency in
  let dist prefix h =
    List.map (fun (k, v) -> (prefix ^ "_" ^ k, v)) (L.dist_fields h)
  in
  [
    ("c", L.c lat);
    ("p", L.p lat);
    ("messages", float_of_int (L.messages lat));
    ("deliveries", float_of_int (L.deliveries lat));
    ("unknown", float_of_int (L.unknown lat));
    ("c_work", L.c_work lat);
    ("p_work", L.p_work lat);
    ("wait", L.wait lat);
  ]
  @ dist "hop" (L.hop lat)
  @ dist "delivery" (L.delivery lat)
  @ dist "e2e" (L.e2e lat)

let gc_paced ~n f =
  let rec pow2 m = if m >= n then m else pow2 (m * 2) in
  let mask = pow2 0x20000 - 1 and tick = ref 0 in
  fun x ->
    incr tick;
    if !tick land mask = 0 then Gc.full_major ();
    f x

let measure row ~n =
  let registry = Hardware.Registry.create () in
  let lat = Query.Latency.create () in
  let trace =
    Sim.Trace.streaming
      ~consumer:
        (gc_paced ~n (fun e ->
             Query.Latency.observe lat e;
             true))
      ()
  in
  Gc.full_major ();
  ignore (row.run ~registry ~trace ~n () : Hardware.Monitor.report list);
  let counter name =
    match Hardware.Registry.find_counter registry name with
    | Some c -> Hardware.Registry.counter_value c
    | None -> 0
  in
  (* empty distributions print 0s, not "nan" (which is not JSON) *)
  let num v = Sim.Json.Num (if Float.is_nan v then 0.0 else v) in
  (("name", Sim.Json.Str (row.name ~n)) :: ("n", num (float_of_int n))
  :: List.map
       (fun (field, name) -> (field, num (float_of_int (counter name))))
       counters)
  @ List.map (fun (k, v) -> (k, num v)) (latency_fields lat)

let golden_path = "test/golden/bench_counters.jsonl"

let read_golden path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text ->
      let lines =
        List.filter (fun l -> String.trim l <> "")
          (String.split_on_char '\n' text)
      in
      List.fold_right
        (fun line acc ->
          Result.bind acc (fun rest ->
              match Sim.Json.parse line with
              | Ok (Sim.Json.Obj (("name", Sim.Json.Str _) :: _ as fields)) ->
                  Ok (fields :: rest)
              | Ok _ -> Error (Printf.sprintf "%s: not a named row: %s" path line)
              | Error msg -> Error (Printf.sprintf "%s: %s" path msg)))
        lines (Ok [])

let golden_line lines ~name =
  List.find_opt
    (fun fields -> List.assoc_opt "name" fields = Some (Sim.Json.Str name))
    lines

let first_difference ~golden measured =
  let render = Sim.Json.render in
  let differs (k, v) =
    match List.assoc_opt k measured with
    | Some m when render m = render v -> None
    | m ->
        Some
          (Printf.sprintf "%s: golden %s, measured %s" k (render v)
             (Option.fold ~none:"missing" ~some:render m))
  in
  let extra (k, v) =
    if List.mem_assoc k golden then None
    else
      Some
        (Printf.sprintf "%s: absent from the golden, measured %s" k (render v))
  in
  match List.find_map differs golden with
  | Some _ as d -> d
  | None -> List.find_map extra measured
