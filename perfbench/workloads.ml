(* The benchmark's workloads.  Each is a closed loop, one caller, of a
   single kind of protocol execution: every op is one call into
   [lib/core] or [lib/chaos] on inputs built from the seed, and every
   op is checked.

   A workload's set-up builds a fixed list of [inputs]
   ([graphs_per_seed] graphs, or [heal_schedules] schedules for
   [heal]); ops cycle through them in order, so
   the simulated costs of a run are a pure function of the seed.

   Sizes are chosen so that an op takes a few milliseconds: short
   enough that the reference kernel run just before it (see
   [Reference]) sees the host at the same speed. *)

module Reg = Hardware.Registry
module Topology = Compile.Topology

type outcome = {
  ok : bool;  (** the op's correctness check *)
  syscalls : int;  (** simulated NCU activations *)
  time : float;  (** simulated completion time, in C/P units *)
  counts : (string * float) list Lazy.t;
      (** per-layer counts of this op; empty unless the op was given a
          registry, and lazy so that reading them (a replay, for [heal])
          stays outside whatever measures the op *)
}

type instance = {
  inputs : int;
  op : ?obs:Obs.t -> ?registry:Reg.t -> int -> outcome;
      (** [op i] runs input [i]; [obs] records spans inside the op,
          [registry] collects the per-layer counts *)
}

type t = {
  name : string;
  n : int;
  setup : Obs.t option -> seed:int -> instance;
}

(* -- correctness checks, shared with the self-test ------------------- *)

(* Theorem 2: every node reached with exactly n system calls, within
   1 + log2 n path generations after the root's own activation. *)
let broadcast_ok ~n (r : Core.Broadcast.result) =
  Core.Broadcast.all_reached r
  && r.syscalls = n
  && r.time <= 2.0 +. Sim.Stats.log2 (float_of_int n)

(* One leader, believed by every node, within Theorem 5's 6n budget. *)
let election_ok ~n (o : Core.Election.outcome) =
  o.leader >= 0 && o.leader < n
  && Array.for_all (( = ) (Some o.leader)) o.believed_leader
  && o.election_syscalls <= 6 * n

let maintenance_ok (o : Core.Topo_maintenance.outcome) = o.converged
let heal_ok (v : Chaos.Runner.verdict) = v.ok

(* -- helpers ---------------------------------------------------------- *)

let counter r name =
  match Reg.find_counter r name with
  | Some c -> float_of_int (Reg.counter_value c)
  | None -> 0.

let net_counts r =
  [
    ("core.activations", counter r "net.syscalls");
    ("net.hops", counter r "net.hops");
    ("net.sends", counter r "net.sends");
    ("net.drops", counter r "net.drops");
  ]

let recover_counts r =
  List.map
    (fun k -> ("recover." ^ k, counter r ("recover." ^ k)))
    [ "retransmits"; "acks"; "timeouts"; "restarts"; "give_ups" ]

let timed obs ?parent name f =
  match obs with None -> f () | Some o -> Obs.time (Obs.span o ?parent name) f

let reached (r : Core.Broadcast.result) = float_of_int (Core.Broadcast.coverage r)

(* Every handler invocation of the node's NCU, timed; the span includes
   the sends the handler issues. *)
let wrap_handlers span (h : 'm Hardware.Network.handlers) : 'm Hardware.Network.handlers =
  {
    on_start =
      (fun ctx ->
        let t0 = Obs.now () in
        h.on_start ctx;
        Obs.stop span t0);
    on_message =
      (fun ctx ~via m ->
        let t0 = Obs.now () in
        h.on_message ctx ~via m;
        Obs.stop span t0);
    on_link_change =
      (fun ctx ~peer ~up ->
        let t0 = Obs.now () in
        h.on_link_change ctx ~peer ~up;
        Obs.stop span t0);
  }

(* The random-connected graph every workload but [heal] runs on, from
   the process-wide compile cache; set-up fills the entry and every op
   looks it up again. *)
let graph_artifact ~seed ~n = Compile.Cache.random_connected ~seed ~n ~extra_edges:(n / 2)

let build_graph obs ~seed ~n =
  timed obs ~parent:"setup" "graph.build" (fun () -> graph_artifact ~seed ~n)

(* Graph workloads run on several graphs, so that a run's figures are
   taken over graphs and vary less from seed to seed; graph [i] of
   seed [s] is built from seed [s * graphs_per_seed + i]. *)
let graphs_per_seed = 8
let graph_seed ~seed i = (seed * graphs_per_seed) + i

let build_graphs obs ~seed ~n =
  for i = 0 to graphs_per_seed - 1 do
    ignore (build_graph obs ~seed:(graph_seed ~seed i) ~n)
  done

(* -- broadcast -------------------------------------------------------- *)

let broadcast_n = 4096

let broadcast =
  let n = broadcast_n in
  let setup obs ~seed =
    for i = 0 to graphs_per_seed - 1 do
      let art = build_graph obs ~seed:(graph_seed ~seed i) ~n in
      ignore (timed obs ~parent:"setup" "graph.bfs" (fun () -> Topology.tree art));
      ignore (timed obs ~parent:"setup" "compile.labels" (fun () -> Topology.labelling art));
      ignore
        (timed obs ~parent:"setup" "compile.routes" (fun () -> Topology.routes art ~chaos:None))
    done;
    let op ?obs ?registry i =
      let art = graph_artifact ~seed:(graph_seed ~seed i) ~n in
      let precomputed = Topology.labelling art in
      let routes = Topology.routes art ~chaos:None in
      let graph = Topology.graph art in
      let config = { (Core.Broadcast.default_config ()) with registry } in
      let r =
        match obs with
        | None -> Core.Branching_paths.run ~config ~precomputed ?routes ~graph ~root:0 ()
        | Some o ->
            (* [Branching_paths.run] without recovery, handlers wrapped *)
            let span = Obs.span o ~parent:"op" "core.handler" in
            let spec ~reached ~view v =
              wrap_handlers span
                (Core.Branching_paths.spec ~precomputed ?routes ~multicast:true ~reached
                   ~view v)
            in
            Core.Broadcast.execute ~config ~graph ~root:0 ~spec ()
      in
      {
        ok = broadcast_ok ~n r;
        syscalls = r.syscalls;
        time = r.time;
        counts =
          lazy
            (match registry with
            | None -> []
            | Some reg -> ("net.reached", reached r) :: net_counts reg);
      }
    in
    { inputs = graphs_per_seed; op }
  in
  { name = "broadcast"; n; setup }

(* -- election --------------------------------------------------------- *)

let election =
  let n = 512 in
  let setup obs ~seed =
    build_graphs obs ~seed ~n;
    let op ?obs:_ ?registry i =
      let graph = Topology.graph (graph_artifact ~seed:(graph_seed ~seed i) ~n) in
      let o = Core.Election.run ?registry ~graph () in
      {
        ok = election_ok ~n o;
        syscalls = o.total_syscalls;
        time = o.time;
        counts =
          lazy
            (match registry with
            | None -> []
            | Some reg ->
                [
                  ("election.tours", float_of_int o.tours);
                  ("election.captures", float_of_int o.captures);
                  ("election.syscalls", float_of_int o.election_syscalls);
                ]
                @ net_counts reg);
      }
    in
    { inputs = graphs_per_seed; op }
  in
  { name = "election"; n; setup }

(* -- maintenance ------------------------------------------------------ *)

(* The Section 3 setting: every node starts with the complete topology
   (preseeded databases), and one link fails just before the first
   round's consistency check, so the all-origin protocol must carry the
   change in round 2 until every node's believed topology matches the
   real one.  The period is 2n, as in the chaos runner: each round
   delivers n broadcasts to every NCU, and a shorter period leaves
   queues whose backlog (and hence the round count) depends on the
   seed. *)
let maintenance_max_rounds = 4

let maintenance =
  let n = 32 in
  let period = 2.0 *. float_of_int n in
  let setup obs ~seed =
    build_graphs obs ~seed ~n;
    let op ?obs:_ ?registry i =
      let graph = Topology.graph (graph_artifact ~seed:(graph_seed ~seed i) ~n) in
      let params =
        {
          (Core.Topo_maintenance.default_params ()) with
          period;
          max_rounds = maintenance_max_rounds;
          preseed = true;
          registry;
        }
      in
      let cut = (0, List.hd (Netgraph.Graph.neighbors graph 0)) in
      let events = [ { Core.Topo_maintenance.at = period -. 1.0; edge = cut; up = false } ] in
      let o = Core.Topo_maintenance.run ~params ~graph ~events () in
      {
        ok = maintenance_ok o;
        syscalls = o.syscalls;
        time = o.time;
        counts =
          lazy
            (match registry with
            | None -> []
            | Some reg ->
                [
                  ("maint.broadcasts", counter reg "maint.broadcasts");
                  ("maint.rounds", float_of_int o.rounds);
                ]
                @ net_counts reg);
      }
    in
    { inputs = graphs_per_seed; op }
  in
  { name = "maintenance"; n; setup }

(* -- heal ------------------------------------------------------------- *)

(* 256 schedules at n = 256: about 4 ms an op, and the means over
   schedules of the simulated costs vary by a few percent from seed to
   seed. *)
let heal_schedules = 256

(* [Chaos.Runner]'s trace ring size: a replay must record into the same
   capacity to reproduce the verdict's completion time. *)
let runner_trace_capacity = 262_144

(* The verdict carries syscalls, hops, drops and retransmits only; the
   rest of the per-layer counts come from replaying the schedule's
   branching-paths run exactly as the runner configures it, with a
   registry attached.  The replay must agree with the verdict. *)
let replay_counts (s : Chaos.Schedule.t) (v : Chaos.Runner.verdict) registry =
  let n = s.n in
  let art = Chaos.Schedule.artifact_of s in
  let config =
    {
      (Core.Broadcast.default_config ()) with
      cost = Chaos.Schedule.cost s;
      trace = Some (Sim.Trace.create ~capacity:runner_trace_capacity ());
      registry = Some registry;
      chaos = Some (Chaos.Schedule.compile s);
      recover = Some (Hardware.Recover.default ~n);
    }
  in
  let r =
    Core.Branching_paths.run ~config ~precomputed:(Topology.labelling art)
      ~graph:(Topology.graph art) ~root:0 ()
  in
  let agrees =
    r.syscalls = v.syscalls && r.hops = v.hops && r.drops = v.drops && r.time = v.time
    && int_of_float (counter registry "recover.retransmits") = v.retransmits
  in
  if not agrees then
    failwith
      (Printf.sprintf "heal: replay of schedule %d disagrees with its verdict" s.index);
  (("net.reached", reached r) :: net_counts registry) @ recover_counts registry

let heal =
  let n = 256 in
  let setup obs ~seed =
    (* each schedule index has its own graph; build them all, with the
       labelling the branching-paths run shares *)
    for index = 0 to heal_schedules - 1 do
      let stub = { Chaos.Schedule.seed; index; n; jitter = 0.0; faults = [] } in
      let art = timed obs ~parent:"setup" "graph.build" (fun () -> Chaos.Schedule.artifact_of stub) in
      ignore (timed obs ~parent:"setup" "graph.bfs" (fun () -> Topology.tree art));
      ignore (timed obs ~parent:"setup" "compile.labels" (fun () -> Topology.labelling art))
    done;
    let op ?obs ?registry index =
      let s =
        timed obs ~parent:"op" "chaos.generate" (fun () ->
            Chaos.Schedule.generate_healing ~n ~seed ~index ())
      in
      let v =
        timed obs ~parent:"op" "chaos.run" (fun () ->
            Chaos.Runner.run_schedule ~liveness:true Parallel.Sweep.Bpaths s)
      in
      {
        ok = heal_ok v;
        syscalls = v.syscalls;
        time = v.time;
        counts = lazy (match registry with None -> [] | Some reg -> replay_counts s v reg);
      }
    in
    { inputs = heal_schedules; op }
  in
  { name = "heal"; n; setup }

let all = [ broadcast; election; maintenance; heal ]
let find name = List.find_opt (fun w -> w.name = name) all
