(* Deterministic replica sweeps over the seven profile scenarios.

   One sweep = [replicas] independent runs of one scenario, replica [i]
   driven by child [i] of Rng.split_n ~seed — so the graph and every
   stochastic choice of replica [i] are a function of (seed, i) alone.
   Each replica owns a private trace and registry; the pool returns
   results in submission order and registries merge in that same order.
   The headline invariant: [metrics_json] of a sweep is byte-identical
   whatever the pool's job count — parallelism only moves the wall
   clock, which is why the wall clock lives outside [metrics_json]. *)

type scenario =
  | Bpaths
  | Flood
  | Dfs
  | Direct
  | Layered
  | Election
  | Maintenance

let all_scenarios =
  [ Bpaths; Flood; Dfs; Direct; Layered; Election; Maintenance ]

(* the only spelling of each family's name: the CLI choices, the JSON
   output and the repro files all go through it *)
let scenario_name = function
  | Bpaths -> "bpaths"
  | Flood -> "flood"
  | Dfs -> "dfs"
  | Direct -> "direct"
  | Layered -> "layered"
  | Election -> "election"
  | Maintenance -> "maintenance"

let scenario_of_string s =
  List.find_opt (fun sc -> scenario_name sc = s) all_scenarios

let broadcast_scenarios =
  List.filter (fun sc -> sc <> Election && sc <> Maintenance) all_scenarios

(* The artifact's labelling and routes are rooted at node 0, so they
   only apply to a broadcast from that root.  The labelling comes from
   the static view and stays sound under a fault plan; compiled routes
   do not, and [routes] returns [None] while one is armed. *)
let broadcast scenario ~config art ~root =
  let graph = Compile.Topology.graph art in
  match scenario with
  | Bpaths when root = 0 ->
      Core.Branching_paths.run ~config
        ~precomputed:(Compile.Topology.labelling art)
        ?routes:(Compile.Topology.routes art ~chaos:config.Core.Broadcast.chaos)
        ~graph ~root ()
  | Bpaths -> Core.Branching_paths.run ~config ~graph ~root ()
  | Flood -> Core.Flooding.run ~config ~graph ~root ()
  | Dfs -> Core.Dfs_broadcast.run ~config ~graph ~root ()
  | Direct -> Core.Direct_broadcast.run ~config ~graph ~root ()
  | Layered -> Core.Layered_broadcast.run ~config ~graph ~root ()
  | Election | Maintenance ->
      invalid_arg
        ("Sweep.broadcast: " ^ scenario_name scenario ^ " is not a broadcast")

type replica = {
  index : int;
  syscalls : int;
  hops : int;
  sends : int;
  drops : int;
  max_header : int;
  time : float;
  covered : int;
  trace_events : int;
}

type t = {
  scenario : scenario;
  n : int;
  seed : int;
  jobs : int;
  replicas : replica array;
  merged : Hardware.Registry.t;
  wall_s : float;
  events : Sim.Trace.event list array;
}

let trace_capacity = 100_000

(* Each replica gets its own random-connected instance of size [n]
   (seed-equivalent to the scaling bench family: extra_edges = n/2)
   through the compiled-topology cache.  The replica's rng child
   splits into a graph half and a run half: the cache rebuilds the
   graph from the graph half's stream, derived from (seed, index, n)
   alone, so a cache hit cannot shift any later draw of the run
   half — hit or miss is unobservable in the metrics. *)
let run_replica scenario ~n ~seed ~keep_events index rng =
  let _graph_rng, run_rng = Sim.Rng.split rng in
  let art = Compile.Cache.sweep_replica ~seed ~index ~n in
  let graph = Compile.Topology.graph art in
  let trace = Sim.Trace.create ~capacity:trace_capacity () in
  let registry = Hardware.Registry.create () in
  let replica =
    match scenario with
    | Election ->
        let o = Core.Election.run ~trace ~registry ~graph () in
        let informed =
          Array.fold_left
            (fun acc b -> if b = Some o.Core.Election.leader then acc + 1 else acc)
            0 o.believed_leader
        in
        {
          index;
          syscalls = o.total_syscalls;
          hops = o.hops;
          sends = o.tours;
          drops = 0;
          max_header = o.max_route;
          time = o.time;
          covered = informed;
          trace_events = Sim.Trace.length trace;
        }
    | Maintenance ->
        (* one replica-specific link failure mid-run, so the replicas
           exercise genuinely different executions *)
        let edges = Array.of_list (Netgraph.Graph.edges graph) in
        let failed = edges.(Sim.Rng.int run_rng (Array.length edges)) in
        let params =
          {
            (Core.Topo_maintenance.default_params ()) with
            max_rounds = 2;
            preseed = true;
            trace = Some trace;
            registry = Some registry;
          }
        in
        let o =
          Core.Topo_maintenance.run ~params ~graph
            ~events:[ { Core.Topo_maintenance.at = 10.0; edge = failed; up = false } ]
            ()
        in
        {
          index;
          syscalls = o.Core.Topo_maintenance.syscalls;
          hops = o.hops;
          sends = o.rounds;
          drops = 0;
          max_header = 0;
          time = o.time;
          covered =
            (match List.rev o.correct_per_round with c :: _ -> c | [] -> 0);
          trace_events = Sim.Trace.length trace;
        }
    | family ->
        let config =
          {
            (Core.Broadcast.default_config ()) with
            trace = Some trace;
            registry = Some registry;
          }
        in
        let r = broadcast family ~config art ~root:0 in
        {
          index;
          syscalls = r.Core.Broadcast.syscalls;
          hops = r.hops;
          sends = r.sends;
          drops = r.drops;
          max_header = r.max_header;
          time = r.time;
          covered = Core.Broadcast.coverage r;
          trace_events = Sim.Trace.length trace;
        }
  in
  (replica, registry, if keep_events then Sim.Trace.events trace else [])

let run ?pool ?(replicas = 8) ?(keep_events = false) scenario ~n ~seed () =
  if replicas < 1 then invalid_arg "Sweep.run: replicas must be positive";
  let rngs = Sim.Rng.split_n (Sim.Rng.create ~seed) replicas in
  let items = Array.mapi (fun i rng -> (i, rng)) rngs in
  let task (i, rng) =
    run_replica scenario ~n ~seed ~keep_events i rng
  in
  let t0 = Unix.gettimeofday () in
  let results =
    match pool with
    | Some p -> Pool.map p task items
    | None -> Array.map task items
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  let merged = Hardware.Registry.create () in
  Array.iter
    (fun (_, reg, _) -> Hardware.Registry.merge ~into:merged reg)
    results;
  {
    scenario;
    n;
    seed;
    jobs = (match pool with Some p -> Pool.jobs p | None -> 1);
    replicas = Array.map (fun (r, _, _) -> r) results;
    merged;
    wall_s;
    events = Array.map (fun (_, _, ev) -> ev) results;
  }

(* -- JSON ------------------------------------------------------------- *)

let replica_json r =
  Printf.sprintf
    "{\"replica\":%d,\"syscalls\":%d,\"hops\":%d,\"sends\":%d,\"drops\":%d,\
     \"max_header\":%d,\"time\":%s,\"covered\":%d,\"trace_events\":%d}"
    r.index r.syscalls r.hops r.sends r.drops r.max_header
    (Sim.Json.float r.time) r.covered r.trace_events

(* Everything parallelism must not change: per-replica metrics in
   submission order plus the merged registry.  No wall clock, no job
   count — [--jobs 1] and [--jobs 8] must render this byte-identically. *)
let metrics_json t =
  Printf.sprintf
    "{\"scenario\":\"%s\",\"n\":%d,\"seed\":%d,\"replica_metrics\":[%s],\
     \"registry\":%s}"
    (scenario_name t.scenario) t.n t.seed
    (String.concat ","
       (Array.to_list (Array.map replica_json t.replicas)))
    (String.trim (Hardware.Registry.to_json t.merged))

let to_json t =
  Printf.sprintf
    "{\"scenario\":\"%s\",\"n\":%d,\"seed\":%d,\"jobs\":%d,\"replicas\":%d,\
     \"wall_s\":%s,\"metrics\":%s}"
    (scenario_name t.scenario) t.n t.seed t.jobs
    (Array.length t.replicas) (Sim.Json.float t.wall_s) (metrics_json t)

let pp ppf t =
  Format.fprintf ppf "%s sweep: n=%d seed=%d jobs=%d replicas=%d wall %.3fs@."
    (scenario_name t.scenario) t.n t.seed t.jobs (Array.length t.replicas)
    t.wall_s;
  Array.iter
    (fun r ->
      Format.fprintf ppf
        "  replica %2d: %6d syscalls %7d hops  time %-10.6g covered %d@."
        r.index r.syscalls r.hops r.time r.covered)
    t.replicas
