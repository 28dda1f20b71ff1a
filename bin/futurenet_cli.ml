(* futurenet - command-line driver.

   Subcommands:
     experiment  regenerate the paper's tables (e1..e9, or all)
     figures     render the paper's Figures 1-5 as ASCII
     broadcast   run one topology broadcast and report its costs
     election    run one leader election and report its costs
     bench       run a multicore replica sweep of one scenario
     chaos       soak scenarios under seeded fault schedules + oracles
     trace       run a scenario and export its structured trace
     query       analyse a JSONL trace stream offline (filter/group/p99)
     diff        first-divergence localisation between two trace streams
     tree        print the optimal computation tree for given C, P, n *)

open Cmdliner

(* -- shared topology argument ----------------------------------------- *)

(* Every CLI scenario graph comes from the process-wide compiled-topology
   cache, so subcommands that run the same (family, n, seed) scenario
   share one artifact — graph, BFS tree, labelling and compiled routes
   are built once per process, not once per use. *)
let build_artifact topology n seed =
  match topology with
  | `Path -> Compile.Cache.path ~n
  | `Ring -> Compile.Cache.ring ~n
  | `Star -> Compile.Cache.star ~n
  | `Complete -> Compile.Cache.complete ~n
  | `Grid ->
      let side = max 2 (int_of_float (sqrt (float_of_int n))) in
      Compile.Cache.grid ~rows:side ~cols:((n + side - 1) / side)
  | `Hypercube ->
      let rec dim d = if 1 lsl d >= n then d else dim (d + 1) in
      Compile.Cache.hypercube ~dim:(dim 0)
  | `Binary ->
      let rec depth d =
        if Netgraph.Builders.binary_tree_nodes ~depth:d >= n then d
        else depth (d + 1)
      in
      Compile.Cache.complete_binary_tree ~depth:(depth 0)
  | `Random -> Compile.Cache.random_connected ~seed ~n ~extra_edges:(n / 2)

let build_graph topology n seed =
  Compile.Topology.graph (build_artifact topology n seed)

(* The artifact's labelling and routes are rooted at node 0, so they
   only apply to a broadcast from that root. *)
let bpaths_precomputed art ~root =
  if root = 0 then
    ( Some (Compile.Topology.labelling art),
      Compile.Topology.routes art ~chaos:None )
  else (None, None)

(* an Arg.enum, so an unknown family is a proper Cmdliner error: non-zero
   exit and a usage message listing the valid names *)
let topology_conv =
  Arg.enum
    [
      ("path", `Path); ("ring", `Ring); ("star", `Star); ("complete", `Complete);
      ("grid", `Grid); ("hypercube", `Hypercube); ("binary", `Binary);
      ("random", `Random);
    ]

let topology_name = function
  | `Path -> "path" | `Ring -> "ring" | `Star -> "star"
  | `Complete -> "complete" | `Grid -> "grid" | `Hypercube -> "hypercube"
  | `Binary -> "binary" | `Random -> "random"

let topology_arg =
  let doc =
    "Topology family: $(b,path), $(b,ring), $(b,star), $(b,complete), \
     $(b,grid), $(b,hypercube), $(b,binary) or $(b,random).  \
     grid/hypercube/binary round n up to the nearest valid size."
  in
  Arg.(value & opt topology_conv `Random
         & info [ "t"; "topology" ] ~docv:"FAMILY" ~doc)

let n_arg =
  Arg.(value & opt int 32 & info [ "n" ] ~docv:"N" ~doc:"Number of nodes.")

let seed_arg =
  Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let json_flag =
  Arg.(value & flag
         & info [ "json" ] ~doc:"Emit the result as one JSON object on stdout.")

(* JSON object of pre-rendered values, shared by --json output paths;
   floats go through Sim.Json.float like the trace exporters so output
   is deterministic *)
let json_obj fields =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Sim.Json.string k ^ ":" ^ v) fields)
  ^ "}"

(* -- experiment -------------------------------------------------------- *)

let jobs_arg =
  let doc =
    "Worker domains for replica sweeps (1 = sequential).  Any value \
     produces byte-identical tables and metrics; only the wall clock \
     changes."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let experiment_cmd =
  let ids =
    Arg.(value & pos_all string [ "all" ] & info [] ~docv:"ID"
           ~doc:"Experiment ids (e1..e9) or 'all'.")
  in
  let run jobs ids =
    Experiments.set_jobs jobs;
    List.iter
      (fun id ->
        if id = "all" then Experiments.run_all ()
        else
          match Experiments.find id with
          | Some (_, description, run) ->
              Printf.printf "\n###### %s - %s ######\n"
                (String.uppercase_ascii id) description;
              run ()
          | None ->
              Printf.eprintf "unknown experiment %S\n" id;
              exit 2)
      ids
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate the paper's evaluation tables.")
    Term.(const run $ jobs_arg $ ids)

(* -- figures ------------------------------------------------------------ *)

let figures_cmd =
  Cmd.v
    (Cmd.info "figures" ~doc:"Render the paper's Figures 1-5 as ASCII.")
    Term.(const Experiments.figures $ const ())

(* -- timeline ------------------------------------------------------------ *)

let timeline_cmd =
  Cmd.v
    (Cmd.info "timeline"
       ~doc:
         "Render per-node ASCII timelines of a branching-paths vs flooding           broadcast, making the system-call cost model visible.")
    Term.(const Experiments.timeline $ const ())

(* -- broadcast ----------------------------------------------------------- *)

let recover_flag =
  Arg.(value & flag
         & info [ "recover" ]
             ~doc:"Enable the self-healing layer (DESIGN.md §16): \
                   deterministic per-node watchdogs with capped \
                   exponential backoff, ack/retransmit for broadcasts, \
                   epoch restarts for election, round resumption for \
                   maintenance.")

let algo_conv =
  Arg.enum
    [
      ("bpaths", `Bpaths); ("flood", `Flood); ("dfs", `Dfs);
      ("direct", `Direct); ("layered", `Layered);
    ]

let algo_name = function
  | `Bpaths -> "bpaths" | `Flood -> "flood" | `Dfs -> "dfs"
  | `Direct -> "direct" | `Layered -> "layered"

let run_broadcast algo ?config ?precomputed ?routes ~graph ~root () =
  match algo with
  | `Bpaths ->
      Core.Branching_paths.run ?config ?precomputed ?routes ~graph ~root ()
  | `Flood -> Core.Flooding.run ?config ~graph ~root ()
  | `Dfs -> Core.Dfs_broadcast.run ?config ~graph ~root ()
  | `Direct -> Core.Direct_broadcast.run ?config ~graph ~root ()
  | `Layered -> Core.Layered_broadcast.run ?config ~graph ~root ()

let broadcast_json ~algo ~topology ~graph ~root (r : Core.Broadcast.result) =
  json_obj
    [
      ("command", "\"broadcast\"");
      ("algorithm", Sim.Json.string (algo_name algo));
      ("topology", Sim.Json.string (topology_name topology));
      ("n", string_of_int (Netgraph.Graph.n graph));
      ("m", string_of_int (Netgraph.Graph.m graph));
      ("root", string_of_int root);
      ("reached", string_of_int (Core.Broadcast.coverage r));
      ("syscalls", string_of_int r.Core.Broadcast.syscalls);
      ("hops", string_of_int r.hops);
      ("sends", string_of_int r.sends);
      ("drops", string_of_int r.drops);
      ("max_header", string_of_int r.max_header);
      ("time", Sim.Json.float r.time);
    ]

let broadcast_cmd =
  let algo_arg =
    Arg.(value & opt algo_conv `Bpaths
           & info [ "a"; "algorithm" ] ~docv:"ALGO"
               ~doc:"$(b,bpaths), $(b,flood), $(b,dfs), $(b,direct) or \
                     $(b,layered).")
  in
  let root_arg =
    Arg.(value & opt int 0 & info [ "root" ] ~docv:"NODE" ~doc:"Broadcaster.")
  in
  let run topology n seed algo root recover json =
    let art = build_artifact topology n seed in
    let graph = Compile.Topology.graph art in
    let precomputed, routes =
      match algo with
      | `Bpaths -> bpaths_precomputed art ~root
      | _ -> (None, None)
    in
    let config =
      if not recover then None
      else
        Some
          {
            (Core.Broadcast.default_config ()) with
            Core.Broadcast.recover =
              Some (Hardware.Recover.default ~n:(Netgraph.Graph.n graph));
          }
    in
    let result =
      run_broadcast algo ?config ?precomputed ?routes ~graph ~root ()
    in
    if json then
      print_endline (broadcast_json ~algo ~topology ~graph ~root result)
    else
      Printf.printf
        "%s on %s (n=%d, m=%d) from node %d:\n\
        \  reached    : %d/%d\n\
        \  syscalls   : %d\n\
        \  hops       : %d\n\
        \  time       : %g\n\
        \  max header : %d elements\n"
        (algo_name algo) (topology_name topology) (Netgraph.Graph.n graph)
        (Netgraph.Graph.m graph) root
        (Core.Broadcast.coverage result)
        (Netgraph.Graph.n graph)
        result.Core.Broadcast.syscalls result.hops result.time result.max_header
  in
  Cmd.v
    (Cmd.info "broadcast" ~doc:"Run one topology broadcast.")
    Term.(const run $ topology_arg $ n_arg $ seed_arg $ algo_arg $ root_arg
          $ recover_flag $ json_flag)

(* -- election ------------------------------------------------------------ *)

let election_json ~topology ~n (o : Core.Election.outcome) =
  json_obj
    [
      ("command", "\"election\"");
      ("topology", Sim.Json.string (topology_name topology));
      ("n", string_of_int n);
      ("leader", string_of_int o.Core.Election.leader);
      ("election_syscalls", string_of_int o.election_syscalls);
      ("theorem5_bound", string_of_int (6 * n));
      ("announce_syscalls", string_of_int o.announce_syscalls);
      ("total_syscalls", string_of_int o.total_syscalls);
      ("hops", string_of_int o.hops);
      ("tours", string_of_int o.tours);
      ("captures", string_of_int o.captures);
      ("max_route", string_of_int o.max_route);
      ("time", Sim.Json.float o.time);
      ( "everyone_informed",
        string_of_bool
          (Array.for_all
             (fun b -> b = Some o.Core.Election.leader)
             o.believed_leader) );
    ]

let election_cmd =
  let run topology n seed recover json =
    let graph = build_graph topology n seed in
    let recover =
      if recover then Some (Hardware.Recover.default ~n:(Netgraph.Graph.n graph))
      else None
    in
    let o = Core.Election.run ?recover ~graph () in
    let n = Netgraph.Graph.n graph in
    if json then print_endline (election_json ~topology ~n o)
    else
      Printf.printf
        "election on %s (n=%d):\n\
        \  leader            : %d\n\
        \  election syscalls : %d  (Theorem 5 bound: %d)\n\
        \  announce syscalls : %d\n\
        \  tours / captures  : %d / %d\n\
        \  time              : %g\n\
        \  everyone informed : %b\n"
        (topology_name topology) n o.Core.Election.leader o.election_syscalls
        (6 * n) o.announce_syscalls o.tours o.captures o.time
        (Array.for_all
           (fun b -> b = Some o.Core.Election.leader)
           o.believed_leader)
  in
  Cmd.v
    (Cmd.info "election" ~doc:"Run one leader election.")
    Term.(const run $ topology_arg $ n_arg $ seed_arg $ recover_flag
          $ json_flag)

(* -- trace ---------------------------------------------------------------- *)

let trace_cmd =
  let scenario_conv =
    Arg.enum
      [
        ("bpaths", `Bpaths); ("flood", `Flood); ("dfs", `Dfs);
        ("direct", `Direct); ("layered", `Layered); ("election", `Election);
      ]
  in
  let scenario_arg =
    Arg.(value & opt scenario_conv `Bpaths
           & info [ "s"; "scenario" ] ~docv:"SCENARIO"
               ~doc:"What to run and trace: a broadcast algorithm \
                     ($(b,bpaths), $(b,flood), $(b,dfs), $(b,direct), \
                     $(b,layered)) or $(b,election).")
  in
  let out_arg =
    Arg.(value & opt string "trace"
           & info [ "o"; "out" ] ~docv:"PREFIX"
               ~doc:"Output prefix: writes $(docv).jsonl and \
                     $(docv).chrome.json.")
  in
  let monitors_conv =
    Arg.enum [ ("off", Hardware.Monitor.Off); ("warn", Hardware.Monitor.Warn);
               ("fail", Hardware.Monitor.Fail) ]
  in
  let monitors_arg =
    Arg.(value & opt monitors_conv Hardware.Monitor.Warn
           & info [ "monitors" ] ~docv:"MODE"
               ~doc:"Paper-bound monitors: $(b,off), $(b,warn) (print \
                     violations) or $(b,fail) (non-zero exit on violation).")
  in
  let root_arg =
    Arg.(value & opt int 0 & info [ "root" ] ~docv:"NODE" ~doc:"Broadcaster.")
  in
  let stream_arg =
    Arg.(value & opt (some string) None
           & info [ "stream" ] ~docv:"FILE"
               ~doc:"Stream the trace as chunked JSONL to $(docv) while the \
                     scenario runs, in O(sink buffer) memory — works at any \
                     n.  Replaces the materialised $(b,--out) files; \
                     monitors that replay the ring buffer are skipped.")
  in
  let write_file path contents =
    let oc = open_out path in
    output_string oc contents;
    close_out oc
  in
  let scenario_tag = function
    | (`Bpaths | `Flood | `Dfs | `Direct | `Layered) as algo -> algo_name algo
    | `Election -> "election"
  in
  let run topology n seed scenario root out mode stream =
    let art = build_artifact topology n seed in
    let graph = Compile.Topology.graph art in
    let n = Netgraph.Graph.n graph in
    let sink =
      match stream with
      | None -> None
      | Some path ->
          let sink = Sim.Sink.file path in
          ignore
            (Sim.Sink.emit sink
               (Sim.Trace_export.stream_header
                  ~fields:
                    [
                      ("scenario",
                       Sim.Json.string (scenario_tag scenario));
                      ("topology",
                       Sim.Json.string (topology_name topology));
                      ("n", string_of_int n);
                      ("seed", string_of_int seed);
                      ("root", string_of_int root);
                    ]
                  ())
              : bool);
          Some (path, sink)
    in
    let trace =
      match sink with
      | None -> Sim.Trace.create ()
      | Some (_, sink) -> Sim.Trace_export.stream_trace sink
    in
    let registry = Hardware.Registry.create () in
    let reports =
      match scenario with
      | (`Bpaths | `Flood | `Dfs | `Direct | `Layered) as algo ->
          let config =
            { (Core.Broadcast.default_config ()) with
              trace = Some trace; registry = Some registry }
          in
          let precomputed, routes =
            match algo with
            | `Bpaths -> bpaths_precomputed art ~root
            | _ -> (None, None)
          in
          let r = run_broadcast algo ~config ?precomputed ?routes ~graph ~root () in
          Printf.printf "%s on %s (n=%d): %d/%d reached, %d syscalls, time %g\n"
            (algo_name algo) (topology_name topology) n
            (Core.Broadcast.coverage r) n r.Core.Broadcast.syscalls r.time;
          let always =
            [
              Hardware.Monitor.fifo_per_link trace;
              Hardware.Monitor.one_way_delivery ~n
                ~syscalls:r.Core.Broadcast.syscalls;
            ]
          in
          if algo = `Bpaths then
            Hardware.Monitor.theorem2_broadcast ~n
              ~syscalls:r.Core.Broadcast.syscalls ~time:r.time ()
            :: always
          else if algo = `Flood then [ List.hd always ]  (* floods re-activate *)
          else always
      | `Election ->
          let o = Core.Election.run ~trace ~registry ~graph () in
          Printf.printf
            "election on %s (n=%d): leader %d, %d election syscalls (6n=%d)\n"
            (topology_name topology) n o.Core.Election.leader
            o.election_syscalls (6 * n);
          [
            Hardware.Monitor.election_budget ~n
              ~election_syscalls:o.election_syscalls;
            Hardware.Monitor.dmax_ceiling ~dmax:((2 * n) + 2)
              ~max_header:o.max_route;
            Hardware.Monitor.fifo_per_link trace;
          ]
    in
    let reports, skipped =
      match sink with
      | None ->
          let jsonl_path = out ^ ".jsonl" in
          let chrome_path = out ^ ".chrome.json" in
          write_file jsonl_path (Sim.Trace_export.jsonl trace);
          write_file chrome_path (Sim.Trace_export.chrome trace);
          Printf.printf "wrote %s (%d events) and %s\n" jsonl_path
            (Sim.Trace.length trace) chrome_path;
          (reports, [])
      | Some (path, sink) ->
          Sim.Trace_export.stream_finish sink trace;
          Sim.Sink.close sink;
          Printf.printf
            "streamed %s (%d lines, %d bytes, %d dropped at the sink)\n"
            path (Sim.Sink.emitted sink) (Sim.Sink.bytes sink)
            (Sim.Trace.dropped_sink trace);
          (* The ring retains nothing in stream mode, so monitors that
             replay it would pass vacuously — drop them, loudly. *)
          let kept, skipped =
            List.partition
              (fun r -> r.Hardware.Monitor.monitor <> "fifo-per-link")
              reports
          in
          (kept, List.map (fun r -> r.Hardware.Monitor.monitor) skipped)
    in
    if skipped <> [] then
      Printf.printf
        "warning: --stream keeps no ring to replay; skipped monitor(s): %s\n"
        (String.concat ", " skipped);
    print_endline "registry:";
    Format.printf "%a@?" Hardware.Registry.pp_summary registry;
    Format.printf "%a@." Compile.Cache.pp_stats ();
    print_endline "monitors:";
    List.iter (fun r -> Format.printf "%a@." Hardware.Monitor.pp_report r) reports;
    (match Hardware.Monitor.enforce mode reports with
    | _ -> ()
    | exception Hardware.Monitor.Violation failed ->
        Printf.eprintf "%d monitor violation(s)\n" (List.length failed);
        exit 3);
    (* a skipped monitor cannot pass: under --monitors fail, skipping
       is itself a violation, not a free pass *)
    if mode = Hardware.Monitor.Fail && skipped <> [] then begin
      Printf.eprintf
        "trace --stream: %d monitor(s) skipped under --monitors fail: %s\n"
        (List.length skipped)
        (String.concat ", " skipped);
      exit 3
    end
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run one scenario, export its trace as JSONL and Chrome \
             trace_event JSON, print the metrics registry, and check the \
             paper-bound monitors.")
    Term.(const run $ topology_arg $ n_arg $ seed_arg $ scenario_arg
          $ root_arg $ out_arg $ monitors_arg $ stream_arg)

(* -- profile ---------------------------------------------------------------- *)

(* The causal critical-path profiler (DESIGN.md §9): run one scenario
   with tracing on, reconstruct the event DAG, walk the binding
   constraints back from termination, and report where the time went in
   the paper's two currencies (C·hops switching, P·syscalls
   processing), plus slack for everything off the path. *)
let profile_cmd =
  let scenario_conv =
    Arg.enum
      [
        ("bpaths", `Bpaths); ("flood", `Flood); ("dfs", `Dfs);
        ("direct", `Direct); ("layered", `Layered); ("election", `Election);
        ("maintenance", `Maintenance);
      ]
  in
  let scenario_name = function
    | `Bpaths -> "bpaths" | `Flood -> "flood" | `Dfs -> "dfs"
    | `Direct -> "direct" | `Layered -> "layered" | `Election -> "election"
    | `Maintenance -> "maintenance"
  in
  let scenario_arg =
    Arg.(value & opt scenario_conv `Bpaths
           & info [ "s"; "scenario" ] ~docv:"SCENARIO"
               ~doc:"What to run and profile: a broadcast algorithm \
                     ($(b,bpaths), $(b,flood), $(b,dfs), $(b,direct), \
                     $(b,layered)), $(b,election) or $(b,maintenance).")
  in
  let c_arg =
    Arg.(value & opt float 0.0
           & info [ "c" ] ~docv:"C" ~doc:"Per-hop switching delay bound.")
  in
  let p_arg =
    Arg.(value & opt float 1.0
           & info [ "p" ] ~docv:"P" ~doc:"Per-system-call processing delay bound.")
  in
  let root_arg =
    Arg.(value & opt int 0 & info [ "root" ] ~docv:"NODE" ~doc:"Broadcaster.")
  in
  let out_arg =
    Arg.(value & opt string "profile"
           & info [ "o"; "out" ] ~docv:"PREFIX"
               ~doc:"Output prefix: writes $(docv).chrome.json with the \
                     critical path coloured for chrome://tracing.")
  in
  let write_file path contents =
    let oc = open_out path in
    output_string oc contents;
    close_out oc
  in
  let run topology n seed scenario root c p out json =
    let art = build_artifact topology n seed in
    let graph = Compile.Topology.graph art in
    let n = Netgraph.Graph.n graph in
    let cost = Hardware.Cost_model.deterministic ~c ~p in
    let trace = Sim.Trace.create () in
    (match scenario with
    | (`Bpaths | `Flood | `Dfs | `Direct | `Layered) as algo ->
        let config =
          { (Core.Broadcast.default_config ()) with cost; trace = Some trace }
        in
        let precomputed, routes =
          match algo with
          | `Bpaths -> bpaths_precomputed art ~root
          | _ -> (None, None)
        in
        ignore
          (run_broadcast algo ~config ?precomputed ?routes ~graph ~root ()
            : Core.Broadcast.result)
    | `Election ->
        ignore (Core.Election.run ~cost ~trace ~graph () : Core.Election.outcome)
    | `Maintenance ->
        let params =
          { (Core.Topo_maintenance.default_params ()) with
            cost; trace = Some trace; max_rounds = 2 }
        in
        ignore
          (Core.Topo_maintenance.run ~params ~graph ~events:[] ()
            : Core.Topo_maintenance.outcome));
    let dag = Analysis.Event_dag.of_trace trace in
    match Analysis.Critical_path.compute ~cost dag with
    | None ->
        prerr_endline "profile: the trace contains no NCU activation";
        exit 2
    | Some cp ->
        let stats = Analysis.Critical_path.slack_stats ~cost dag in
        let critical = Hashtbl.create 64 in
        List.iter
          (fun i -> Hashtbl.replace critical i ())
          (Analysis.Critical_path.critical_indices cp);
        let decorate i =
          if Hashtbl.mem critical i then {|,"cname":"terrible"|} else ""
        in
        let chrome_path = out ^ ".chrome.json" in
        write_file chrome_path (Sim.Trace_export.chrome ~decorate trace);
        let log2_bound = 1 + int_of_float (ceil (log (float_of_int n) /. log 2.)) in
        if json then
          print_endline
            (json_obj
               [
                 ("command", "\"profile\"");
                 ("scenario", Sim.Json.string (scenario_name scenario));
                 ("topology", Sim.Json.string (topology_name topology));
                 ("n", string_of_int n);
                 ("c", Sim.Json.float c);
                 ("p", Sim.Json.float p);
                 ("events", string_of_int (Analysis.Event_dag.size dag));
                 ("critical_path", Analysis.Critical_path.to_json cp);
                 ("slack", Analysis.Critical_path.slack_stats_json stats);
               ])
        else begin
          Printf.printf "%s on %s (n=%d, C=%g, P=%g): %d trace events\n"
            (scenario_name scenario) (topology_name topology) n c p
            (Analysis.Event_dag.size dag);
          Format.printf "  dag: %a@." Analysis.Event_dag.pp_stats dag;
          Format.printf "%a" Analysis.Critical_path.pp cp;
          Printf.printf
            "  slack      : %d/%d events with zero slack, max %g, mean %g\n"
            stats.Analysis.Critical_path.zero_slack stats.events stats.max_slack
            stats.mean_slack;
          (if scenario = `Bpaths then
             let d = cp.Analysis.Critical_path.deliveries in
             Printf.printf
               "  theorem 2  : %d P-steps (deliveries) on the critical path, \
                bound 1 + ceil(log2 %d) = %d %s\n"
               d n log2_bound
               (if d <= log2_bound then "[ok]" else "[EXCEEDED]"));
          Printf.printf "wrote %s (critical path coloured)\n" chrome_path
        end
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Run one scenario and profile its causal critical path: C/P \
             cost attribution per node, phase and link, slack analysis, \
             and a chrome://tracing export with the path coloured.")
    Term.(const run $ topology_arg $ n_arg $ seed_arg $ scenario_arg
          $ root_arg $ c_arg $ p_arg $ out_arg $ json_flag)

(* -- bench (parallel replica sweeps) ---------------------------------- *)

let bench_cmd =
  let scenario_conv =
    Arg.enum
      (List.map
         (fun s -> (Parallel.Sweep.scenario_name s, s))
         Parallel.Sweep.all_scenarios)
  in
  let scenario_arg =
    Arg.(value & opt scenario_conv Parallel.Sweep.Bpaths
           & info [ "s"; "scenario" ] ~docv:"SCENARIO"
               ~doc:"Scenario to sweep: $(b,bpaths), $(b,flood), $(b,dfs), \
                     $(b,direct), $(b,layered), $(b,election) or \
                     $(b,maintenance).")
  in
  let replicas_arg =
    Arg.(value & opt int 8
           & info [ "r"; "replicas" ] ~docv:"R"
               ~doc:"Independent replicas to run (each on its own \
                     seed-derived random graph).")
  in
  let sweep_jobs_arg =
    let doc =
      "Worker domains (default: the runtime's recommended domain count).  \
       Per-replica metrics are byte-identical at any value."
    in
    Arg.(value & opt int (Parallel.Pool.default_jobs ())
           & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  let run n seed scenario replicas jobs json =
    let sweep pool =
      Parallel.Sweep.run ?pool ~replicas scenario ~n ~seed ()
    in
    (* Pool/cache telemetry is wall-clock dependent, so it only ever
       reaches the text summary — the json output stays byte-identical
       at any --jobs (DESIGN.md §10). *)
    let s, pool_telemetry =
      if jobs <= 1 then (sweep None, None)
      else
        Parallel.Pool.with_pool ~jobs (fun pool ->
            let s = sweep (Some pool) in
            let reg = Hardware.Registry.create () in
            Parallel.Pool.publish pool reg;
            (s, Some reg))
    in
    if json then print_endline (Parallel.Sweep.to_json s)
    else begin
      Format.printf "%a@?" Parallel.Sweep.pp s;
      (match pool_telemetry with
       | None -> ()
       | Some reg ->
           print_endline "pool telemetry:";
           Format.printf "%a@?" Hardware.Registry.pp_summary reg);
      Format.printf "%a@." Compile.Cache.pp_stats ()
    end
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:"Run a multicore replica sweep of one scenario: R independent \
             replicas with pre-split rng streams fanned over a domain \
             pool.  The per-replica metrics do not depend on --jobs.")
    Term.(const run $ n_arg $ seed_arg $ scenario_arg $ replicas_arg
          $ sweep_jobs_arg $ json_flag)

(* -- chaos (deterministic fault-injection soak) ------------------------ *)

let chaos_cmd =
  let scenario_conv =
    Arg.enum
      (("all", None)
      :: List.map
           (fun s -> (Parallel.Sweep.scenario_name s, Some s))
           Parallel.Sweep.all_scenarios)
  in
  let scenario_arg =
    Arg.(value & opt scenario_conv None
           & info [ "s"; "scenario" ] ~docv:"SCENARIO"
               ~doc:"Scenario family to soak ($(b,bpaths), $(b,flood), \
                     $(b,dfs), $(b,direct), $(b,layered), $(b,election), \
                     $(b,maintenance)) or $(b,all).")
  in
  let chaos_n_arg =
    Arg.(value & opt int 64 & info [ "n" ] ~docv:"N" ~doc:"Number of nodes.")
  in
  let schedules_arg =
    Arg.(value & opt int 32
           & info [ "k"; "schedules" ] ~docv:"K"
               ~doc:"Seeded fault schedules per scenario (indices 0..K-1); \
                     every schedule replays from (seed, index) alone.")
  in
  let chaos_jobs_arg =
    let doc =
      "Worker domains.  Every verdict is a pure function of (scenario, n, \
       seed, index), so the output is byte-identical at any value."
    in
    Arg.(value & opt int (Parallel.Pool.default_jobs ())
           & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  let replay_arg =
    Arg.(value & opt (some file) None
           & info [ "replay" ] ~docv:"FILE"
               ~doc:"Replay one minimal-repro JSON file instead of soaking.")
  in
  let out_dir_arg =
    Arg.(value & opt dir "."
           & info [ "out-dir" ] ~docv:"DIR"
               ~doc:"Directory for chaos-repro-*.json counterexamples.")
  in
  let heartbeat_arg =
    Arg.(value & opt (some string) None
           & info [ "heartbeat" ] ~docv:"FILE"
               ~doc:"Stream periodic soak/shrink progress records \
                     (JSONL) to $(docv) while the soak runs.")
  in
  let heartbeat_every_arg =
    Arg.(value & opt int 8
           & info [ "heartbeat-every" ] ~docv:"K"
               ~doc:"Beat every $(docv) completed schedules or shrink \
                     probes (the final completion always beats).")
  in
  let liveness_arg =
    Arg.(value & flag
           & info [ "liveness" ]
               ~doc:"Liveness mode: soak $(i,healing) schedules (every \
                     fault heals before the horizon) with the \
                     self-healing layer enabled, and require correct \
                     termination within the retry budget.  Exit 10 when \
                     a liveness oracle fails.  Supports $(b,bpaths), \
                     $(b,flood), $(b,election) and $(b,maintenance) \
                     ($(b,all) restricts itself to those four).")
  in
  let replay_file json path =
    match Chaos.Runner.replay path with
    | Error msg ->
        Printf.eprintf "chaos --replay: %s\n" msg;
        exit 2
    | Ok v ->
        if json then print_endline (Chaos.Runner.verdict_json v)
        else Format.printf "%a@?" Chaos.Runner.pp_verdict v;
        if not v.Chaos.Runner.ok then begin
          (if not json then
             match Chaos.Runner.baseline_divergence v with
             | Ok report -> print_string report
             | Error msg -> Printf.printf "(no baseline diff: %s)\n" msg);
          exit (if v.Chaos.Runner.liveness then 10 else 6)
        end
  in
  let liveness_scenarios =
    [ Parallel.Sweep.Bpaths; Parallel.Sweep.Flood; Parallel.Sweep.Election;
      Parallel.Sweep.Maintenance ]
  in
  let run n seed scenario schedules jobs json liveness replay out_dir hb_path
      hb_every =
    match replay with
    | Some path -> replay_file json path
    | None ->
        let scenarios =
          match scenario with
          | Some s when liveness && not (List.mem s liveness_scenarios) ->
              Printf.eprintf
                "chaos --liveness: %s has no recovery layer (use bpaths, \
                 flood, election or maintenance)\n"
                (Parallel.Sweep.scenario_name s);
              exit 2
          | Some s -> [ s ]
          | None ->
              if liveness then liveness_scenarios
              else Parallel.Sweep.all_scenarios
        in
        let hb =
          match hb_path with
          | None -> None
          | Some path ->
              let sink = Sim.Sink.file path in
              (* Runner.heartbeat writes the schema header itself
                 (kind "chaos_heartbeat") — these fields ride along *)
              Some
                ( path,
                  sink,
                  Chaos.Runner.heartbeat ~every:hb_every
                    ~fields:
                      [ ("n", string_of_int n);
                        ("seed", string_of_int seed);
                        ("schedules", string_of_int schedules);
                        ("liveness", string_of_bool liveness) ]
                    sink )
        in
        let heartbeat = Option.map (fun (_, _, h) -> h) hb in
        let soak pool sc =
          Chaos.Runner.soak ?pool ?heartbeat ~liveness sc ~n ~seed ~schedules ()
        in
        let soaks =
          if jobs <= 1 then List.map (soak None) scenarios
          else
            Parallel.Pool.with_pool ~jobs (fun pool ->
                List.map (soak (Some pool)) scenarios)
        in
        if json then
          print_endline
            ("[" ^ String.concat "," (List.map Chaos.Runner.soak_json soaks)
            ^ "]")
        else List.iter (Format.printf "%a" Chaos.Runner.pp_soak) soaks;
        let failing =
          List.concat_map
            (fun s ->
              List.filter
                (fun v -> not v.Chaos.Runner.ok)
                (Array.to_list s.Chaos.Runner.verdicts))
            soaks
        in
        Format.print_flush ();
        let close_hb () =
          match hb with
          | None -> ()
          | Some (path, sink, _) ->
              Sim.Sink.close sink;
              if not json then
                Printf.printf "heartbeat: %d records (%d bytes) in %s\n"
                  (Sim.Sink.emitted sink) (Sim.Sink.bytes sink) path
        in
        if failing <> [] then begin
          (* shrink each counterexample to a minimal repro before exiting *)
          List.iter
            (fun v ->
              let minimal = Chaos.Runner.shrink ?heartbeat v in
              let path =
                Filename.concat out_dir
                  (Printf.sprintf "chaos-repro-%s-%d.json"
                     (Parallel.Sweep.scenario_name
                        minimal.Chaos.Runner.scenario)
                     minimal.Chaos.Runner.schedule.Chaos.Schedule.index)
              in
              Chaos.Runner.write_repro ~path minimal;
              if not json then begin
                Printf.printf
                  "  shrunk schedule %d to %d fault event(s); repro at %s\n"
                  minimal.Chaos.Runner.schedule.Chaos.Schedule.index
                  (List.length
                     minimal.Chaos.Runner.schedule.Chaos.Schedule.faults)
                  path;
                (* localise: where the shrunken schedule's trace first
                   departs from its fault-free twin *)
                match Chaos.Runner.baseline_divergence minimal with
                | Ok report ->
                    print_string ("  " ^ String.concat "\n  "
                      (String.split_on_char '\n' (String.trim report)));
                    print_newline ()
                | Error msg ->
                    Printf.printf "  (no baseline diff: %s)\n" msg
              end)
            failing;
          close_hb ();
          exit (if liveness then 10 else 6)
        end
        else close_hb ()
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Soak scenarios under seeded deterministic fault schedules \
             (link flaps, crashes, partitions, in-flight drops, delay \
             jitter), check safety oracles after quiescence, and shrink \
             any failing schedule to a minimal JSON repro.  Exit 6 when \
             a safety oracle fails, 10 when a $(b,--liveness) oracle \
             fails.")
    Term.(const run $ chaos_n_arg $ seed_arg $ scenario_arg $ schedules_arg
          $ chaos_jobs_arg $ json_flag $ liveness_arg $ replay_arg
          $ out_dir_arg $ heartbeat_arg $ heartbeat_every_arg)

(* -- query (offline trace analytics) ----------------------------------- *)

let query_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None
           & info [] ~docv:"FILE"
               ~doc:"A schema-v2 JSONL stream: a $(b,trace --stream) export, \
                     a materialised trace .jsonl, or a chaos heartbeat file.")
  in
  let kind_conv =
    Arg.enum (List.map (fun k -> (Query.Engine.kind_name k, k))
                Query.Engine.all_kinds)
  in
  let kinds_arg =
    Arg.(value & opt_all kind_conv []
           & info [ "kind" ] ~docv:"KIND"
               ~doc:"Keep only events of $(docv) ($(b,hop), $(b,syscall), \
                     $(b,send), $(b,receive), $(b,drop), $(b,link_change), \
                     $(b,custom)); repeatable.")
  in
  let nodes_arg =
    Arg.(value & opt_all int []
           & info [ "node" ] ~docv:"NODE"
               ~doc:"Keep only events touching $(docv) (a hop matches on \
                     either endpoint); repeatable.")
  in
  let link_conv =
    let parse s =
      match String.split_on_char ':' s with
      | [ u; v ] -> (
          match (int_of_string_opt u, int_of_string_opt v) with
          | Some u, Some v -> Ok (u, v)
          | _ -> Error (`Msg (Printf.sprintf "bad link %S (want U:V)" s)))
      | _ -> Error (`Msg (Printf.sprintf "bad link %S (want U:V)" s))
    in
    let print ppf (u, v) = Format.fprintf ppf "%d:%d" u v in
    Arg.conv (parse, print)
  in
  let link_arg =
    Arg.(value & opt (some link_conv) None
           & info [ "link" ] ~docv:"U:V"
               ~doc:"Keep only hops (and link changes) over the directed \
                     link $(docv).")
  in
  let phase_arg =
    Arg.(value & opt (some string) None
           & info [ "phase" ] ~docv:"LABEL"
               ~doc:"Keep only events whose label equals $(docv) exactly \
                     (sends, receives, syscalls, custom marks).")
  in
  let since_arg =
    Arg.(value & opt (some float) None
           & info [ "since" ] ~docv:"T"
               ~doc:"Keep only events at simulated time >= $(docv).")
  in
  let until_arg =
    Arg.(value & opt (some float) None
           & info [ "until" ] ~docv:"T"
               ~doc:"Keep only events at simulated time <= $(docv).")
  in
  let group_conv =
    Arg.enum
      [ ("kind", Query.Engine.By_kind); ("node", Query.Engine.By_node);
        ("phase", Query.Engine.By_phase); ("link", Query.Engine.By_link) ]
  in
  let group_arg =
    Arg.(value & opt (some group_conv) None
           & info [ "g"; "group-by" ] ~docv:"DIM"
               ~doc:"Group matched events by $(b,kind), $(b,node), \
                     $(b,phase) or $(b,link).")
  in
  let c_arg =
    Arg.(value & opt float 0.0
           & info [ "c" ] ~docv:"C"
               ~doc:"Per-hop switching bound used to split latency into \
                     work and wait (default 0, the new model).")
  in
  let p_arg =
    Arg.(value & opt float 1.0
           & info [ "p" ] ~docv:"P"
               ~doc:"Per-delivery processing bound (default 1).")
  in
  let run file kinds nodes link phase since until group_by c p json =
    let filter =
      { Query.Engine.kinds; nodes; link; phase; since; until }
    in
    let cost = Hardware.Cost_model.deterministic ~c ~p in
    match Query.Engine.run_file ~cost ~filter ?group_by file with
    | Error msg ->
        Printf.eprintf "query: %s\n" msg;
        exit 2
    | Ok report ->
        if json then print_endline (Query.Engine.to_json report)
        else Format.printf "%a@?" Query.Engine.pp report
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Analyse a JSONL trace stream offline: filter by \
             node/link/kind/phase/time-window, group, and aggregate — \
             count, mean and p50/p95/p99 latency distributions priced in \
             the paper's C/P terms — in O(bins) memory however long the \
             stream.")
    Term.(const run $ file_arg $ kinds_arg $ nodes_arg $ link_arg $ phase_arg
          $ since_arg $ until_arg $ group_arg $ c_arg $ p_arg $ json_flag)

(* -- diff (first-divergence localisation) ------------------------------- *)

let diff_cmd =
  let a_arg =
    Arg.(required & pos 0 (some file) None
           & info [] ~docv:"BASELINE" ~doc:"The reference JSONL stream.")
  in
  let b_arg =
    Arg.(required & pos 1 (some file) None
           & info [] ~docv:"CANDIDATE" ~doc:"The stream to compare.")
  in
  let window_arg =
    Arg.(value & opt int 4096
           & info [ "window" ] ~docv:"W"
               ~doc:"How many common-prefix events the binding-predecessor \
                     chain may reach back through (bounds memory).")
  in
  let c_arg =
    Arg.(value & opt float 0.0
           & info [ "c" ] ~docv:"C"
               ~doc:"Hop cost used to rank binding constraints (default 0).")
  in
  let run a b window c json =
    match Query.Diff.of_files ~window ~c ~baseline:a b with
    | Error msg ->
        Printf.eprintf "diff: %s\n" msg;
        exit 2
    | Ok outcome ->
        if json then print_endline (Query.Diff.to_json outcome)
        else print_string (Query.Diff.report ~baseline:a ~candidate:b outcome);
        (match outcome with
        | Query.Diff.Identical _ -> ()
        | Query.Diff.Diverged _ -> exit Query.Diff.exit_code)
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Causally align two JSONL trace streams and report the first \
             divergence: event index, charged node, and the chain of \
             binding causal predecessors leading to it.  Exit 9 when the \
             streams diverge.")
    Term.(const run $ a_arg $ b_arg $ window_arg $ c_arg $ json_flag)

(* -- maintenance ----------------------------------------------------------- *)

let maintenance_cmd =
  let method_conv =
    Arg.enum
      [
        ("bpaths", Core.Topo_maintenance.Branching);
        ("flood", Core.Topo_maintenance.Flood);
        ("dfs", Core.Topo_maintenance.Dfs_token);
      ]
  in
  let method_arg =
    Arg.(value & opt method_conv Core.Topo_maintenance.Branching
           & info [ "m"; "method" ] ~docv:"METHOD"
               ~doc:"$(b,bpaths), $(b,flood) or $(b,dfs).")
  in
  let failures_arg =
    Arg.(value & opt int 2
           & info [ "f"; "failures" ] ~docv:"K"
               ~doc:"Number of random links to fail mid-run.")
  in
  let origins_arg =
    Arg.(value & opt int 0
           & info [ "origins" ] ~docv:"K"
               ~doc:"When positive, only $(docv) evenly spaced nodes run the \
                     periodic broadcast (the rest record, merge and relay) \
                     and convergence means every node holds each origin's \
                     freshest view — the Theta(nk)-per-round scale mode. 0 \
                     (the default) is the full protocol: every node \
                     broadcasts.")
  in
  let run topology n seed method_ failures origins recover =
    let graph = build_graph topology n seed in
    let rng = Sim.Rng.create ~seed:(seed + 1) in
    let edges = Array.of_list (Netgraph.Graph.edges graph) in
    Sim.Rng.shuffle_array_in_place rng edges;
    let events =
      List.init
        (min failures (Array.length edges))
        (fun i ->
          {
            Core.Topo_maintenance.at = 10.0 +. (5.0 *. float_of_int i);
            edge = edges.(i);
            up = false;
          })
    in
    let method_name =
      match method_ with
      | Core.Topo_maintenance.Branching -> "bpaths"
      | Core.Topo_maintenance.Flood -> "flood"
      | Core.Topo_maintenance.Dfs_token -> "dfs"
    in
    let nodes = Netgraph.Graph.n graph in
    let origin_list =
      if origins <= 0 then None
      else
        let k = min origins nodes in
        Some (List.init k (fun i -> i * (nodes / k)))
    in
    let params =
      {
        (Core.Topo_maintenance.default_params ()) with
        method_;
        preseed = true;
        origins = origin_list;
        recover =
          (if recover then Some (Hardware.Recover.default ~n:nodes) else None);
      }
    in
    let o = Core.Topo_maintenance.run ~params ~graph ~events () in
    let mode =
      match origin_list with
      | None -> ""
      | Some l -> Printf.sprintf ", %d origins" (List.length l)
    in
    Printf.printf
      "topology maintenance (%s%s) on %s (n=%d), %d link failures:\n\
      \  converged : %b after %d rounds\n\
      \  syscalls  : %d, hops %d\n\
      \  consistent nodes per round: %s\n"
      method_name mode (topology_name topology) nodes
      (List.length events) o.Core.Topo_maintenance.converged o.rounds
      o.syscalls o.hops
      (String.concat " " (List.map string_of_int o.correct_per_round))
  in
  Cmd.v
    (Cmd.info "maintenance" ~doc:"Run the topology-maintenance protocol.")
    Term.(const run $ topology_arg $ n_arg $ seed_arg $ method_arg $ failures_arg
          $ origins_arg $ recover_flag)

(* -- tree ----------------------------------------------------------------- *)

let tree_cmd =
  let c_arg =
    Arg.(value & opt float 1.0 & info [ "c" ] ~docv:"C" ~doc:"Hardware delay bound.")
  in
  let p_arg =
    Arg.(value & opt float 1.0 & info [ "p" ] ~docv:"P" ~doc:"Software delay bound.")
  in
  let run c p n =
    let params = { Core.Optimal_tree.c; p } in
    match Core.Optimal_tree.optimal_tree params ~n with
    | tree ->
        Printf.printf "optimal tree for n=%d, C=%g, P=%g (t_opt = %g):\n" n c p
          (Core.Optimal_tree.optimal_time params ~n);
        Format.printf "%a@." Netgraph.Tree.pp
          (Core.Optimal_tree.to_netgraph_tree tree);
        Printf.printf "depth %d, root degree %d, profile %s\n"
          (Core.Optimal_tree.depth tree)
          (Core.Optimal_tree.root_degree tree)
          (String.concat ","
             (List.map string_of_int (Core.Optimal_tree.nodes_per_depth tree)))
    | exception Core.Optimal_tree.Unbounded ->
        print_endline
          "P = 0 is the traditional model: a star computes any n in constant time"
  in
  Cmd.v
    (Cmd.info "tree" ~doc:"Print the optimal computation tree (Section 5).")
    Term.(const run $ c_arg $ p_arg $ n_arg)

let () =
  let doc =
    "Reproduction of Cidon, Gopal and Kutten, 'New Models and Algorithms for \
     Future Networks' (PODC 1988)."
  in
  let info = Cmd.info "futurenet" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            experiment_cmd; figures_cmd; timeline_cmd; broadcast_cmd;
            election_cmd; trace_cmd; profile_cmd; bench_cmd; chaos_cmd;
            query_cmd; diff_cmd; maintenance_cmd; tree_cmd;
          ]))
