module Sweep = Parallel.Sweep
module Registry = Hardware.Registry
module Monitor = Hardware.Monitor

type scenario = Sweep.scenario

let trace_capacity = 262_144

type verdict = {
  scenario : scenario;
  schedule : Schedule.t;
  liveness : bool;
  oracles : Monitor.report list;
  ok : bool;
  syscalls : int;
  hops : int;
  drops : int;
  dropped_in_flight : int;
  retransmits : int;
  restarts : int;
  time : float;
}

type soak = {
  soak_scenario : scenario;
  n : int;
  seed : int;
  verdicts : verdict array;
}

let failures soak =
  Array.fold_left (fun acc v -> if v.ok then acc else acc + 1) 0 soak.verdicts

let counter_value registry name =
  match Registry.find_counter registry name with
  | Some c -> Registry.counter_value c
  | None -> 0

(* The trace oracles consume events as they are recorded, so a run
   retains none; only a traced replay ([keep]), whose events feed a
   diff, also keeps them in a ring. *)
let tapped ~keep n =
  let tap = Oracle.tap ~n in
  let consumer = Oracle.observe tap in
  (tap, Sim.Trace.streaming ~keep ~capacity:trace_capacity ~consumer ())

let trace_oracles tap trace =
  [
    Oracle.trace_complete ~capacity:trace_capacity trace;
    Oracle.fifo_per_link tap;
  ]

let run_broadcast ~liveness ~keep scenario (s : Schedule.t) art =
  let n = s.Schedule.n in
  let graph = Compile.Topology.graph art in
  let tap, trace = tapped ~keep n in
  let registry = Registry.create () in
  let config =
    {
      (Core.Broadcast.default_config ()) with
      cost = Schedule.cost s;
      trace = Some trace;
      registry = Some registry;
      chaos = Some s.Schedule.faults;
      recover = (if liveness then Some (Hardware.Recover.default ~n) else None);
    }
  in
  let r = Sweep.broadcast scenario ~config art ~root:0 in
  let deliveries = Oracle.deliveries tap in
  let oracles =
    trace_oracles tap trace
    @ (if liveness then
         (* retransmission waves legitimately re-deliver, so the
            at-most-once delivery-count oracles don't apply — acceptance
            idempotency is the protocols' own dedup; what must hold is
            termination: everyone reached, no retry budget exhausted *)
         [
           Oracle.liveness_all_reached ~reached:r.Core.Broadcast.reached;
           Oracle.retry_budget_respected
             ~give_ups:(counter_value registry "recover.give_ups");
         ]
       else
         (if scenario = Sweep.Flood then
            [ Oracle.degree_bounded_delivery ~graph ~deliveries ]
          else [ Oracle.at_most_once_delivery ~deliveries ])
         @
         if Schedule.is_static s then
           [
             Oracle.static_component_scope ~graph ~schedule:s ~root:0
               ~deliveries ~reached:r.Core.Broadcast.reached;
           ]
         else [])
  in
  ( oracles,
    r.Core.Broadcast.syscalls,
    r.hops,
    r.drops,
    counter_value registry "net.dropped_in_flight",
    Hardware.Recover.counters (Some registry),
    r.time,
    Some trace )

let run_election ~liveness ~keep (s : Schedule.t) graph =
  let n = s.Schedule.n in
  let tap, trace = tapped ~keep n in
  let registry = Registry.create () in
  let recover = if liveness then Some (Hardware.Recover.default ~n) else None in
  let o =
    Core.Election.run_chaos ~cost:(Schedule.cost s) ?recover ~trace ~registry
      ~chaos:s.Schedule.faults ~graph ()
  in
  let oracles =
    trace_oracles tap trace
    @
    if liveness then
      [
        Oracle.liveness_unique_leader ~leaders:o.Core.Election.leaders
          ~believed:o.believed;
        Oracle.election_budget_recovering ~n
          ~restarts:(counter_value registry "recover.restarts")
          ~deliveries:o.election_deliveries;
        Oracle.retry_budget_respected
          ~give_ups:(counter_value registry "recover.give_ups");
      ]
    else
      [
        Oracle.at_most_one_leader ~leaders:o.Core.Election.leaders;
        Oracle.believed_consistent ~leaders:o.leaders ~believed:o.believed;
        Oracle.election_budget_held ~n ~deliveries:o.election_deliveries;
      ]
  in
  ( oracles,
    o.chaos_syscalls,
    o.chaos_hops,
    o.chaos_drops,
    counter_value registry "net.dropped_in_flight",
    Hardware.Recover.counters (Some registry),
    o.chaos_time,
    Some trace )

(* The maintenance run gets no trace: rounds of n broadcasts can
   overflow any bounded recorder, and a truncated trace would make the
   delivery oracles unsound.  Convergence is the oracle that matters
   here (Theorem 1).

   The period must clear the NCU throughput bound.  Every node
   processes at least one view per origin per round — n activations of
   one sys_delay each through its single-server FIFO queue — so any
   period below n x sys_delay grows the queues without bound and
   convergence stalls behind the backlog, not behind the protocol.
   2n gives every round headroom to drain; all schedule faults land
   before the first round check, leaving the remaining rounds
   quiescent. *)
let maintenance_period n = 2.0 *. float_of_int n
let maintenance_rounds = 12

let run_maintenance ~liveness (s : Schedule.t) graph =
  let registry = Registry.create () in
  let n = s.Schedule.n in
  let params =
    {
      (Core.Topo_maintenance.default_params ()) with
      period = maintenance_period n;
      max_rounds = maintenance_rounds;
      preseed = true;
      reset_on_recover = true;
      cost = Schedule.cost s;
      registry = Some registry;
      recover = (if liveness then Some (Hardware.Recover.default ~n) else None);
    }
  in
  let o =
    Core.Topo_maintenance.run ~params ~chaos:s.Schedule.faults ~graph
      ~events:[] ()
  in
  let oracles =
    [
      Oracle.convergence ~converged:o.Core.Topo_maintenance.converged
        ~rounds:o.rounds;
    ]
  in
  ( oracles,
    o.syscalls,
    o.hops,
    counter_value registry "net.drops",
    counter_value registry "net.dropped_in_flight",
    Hardware.Recover.counters (Some registry),
    o.time,
    None )

let liveness_scenarios =
  [ Sweep.Bpaths; Sweep.Flood; Sweep.Election; Sweep.Maintenance ]

let liveness_refusal scenario =
  Printf.sprintf "liveness: %s has no recovery layer (liveness mode supports %s)"
    (Sweep.scenario_name scenario)
    (String.concat ", " (List.map Sweep.scenario_name liveness_scenarios))

let run_schedule_full ?(liveness = false) ~keep scenario (s : Schedule.t) =
  if liveness && not (List.mem scenario liveness_scenarios) then
    invalid_arg ("Runner: " ^ liveness_refusal scenario);
  let art = Schedule.artifact_of s in
  let graph = Compile.Topology.graph art in
  let ( oracles,
        syscalls,
        hops,
        drops,
        dropped_in_flight,
        (retransmits, restarts),
        time,
        trace ) =
    match scenario with
    | Sweep.Election -> run_election ~liveness ~keep s graph
    | Sweep.Maintenance -> run_maintenance ~liveness s graph
    | broadcast -> run_broadcast ~liveness ~keep broadcast s art
  in
  ( {
      scenario;
      schedule = s;
      liveness;
      oracles;
      ok = List.for_all (fun r -> r.Monitor.ok) oracles;
      syscalls;
      hops;
      drops;
      dropped_in_flight;
      retransmits;
      restarts;
      time;
    },
    trace )

let run_schedule ?liveness scenario s =
  fst (run_schedule_full ?liveness ~keep:false scenario s)

let run_schedule_traced ?liveness scenario s =
  match run_schedule_full ?liveness ~keep:true scenario s with
  | v, Some trace -> (v, Some (Sim.Trace.events trace))
  | v, None -> (v, None)

(* Localising a failure: replay the (shrunken) schedule traced, replay
   its fault-free twin — same (seed, index, n, jitter), so the same
   graph, cost model and rng streams — and report where the two traces
   first part ways.  The twin is the execution the faults perturbed,
   which makes the divergence point the first observable effect of the
   minimal fault set. *)
let baseline_divergence ?window v =
  let healthy = { v.schedule with Schedule.faults = [] } in
  match
    (run_schedule_traced ~liveness:v.liveness v.scenario healthy,
     run_schedule_traced ~liveness:v.liveness v.scenario v.schedule)
  with
  | (_, Some baseline), (_, Some candidate) ->
      let c = (Schedule.cost v.schedule).Hardware.Cost_model.c in
      let outcome = Query.Diff.of_events ?window ~c ~baseline candidate in
      Ok
        (Query.Diff.report ~baseline:"fault-free baseline"
           ~candidate:
             (Printf.sprintf "schedule %d (%d faults)"
                v.schedule.Schedule.index
                (List.length v.schedule.Schedule.faults))
           outcome)
  | _ ->
      Error
        (Printf.sprintf
           "%s runs untraced (unbounded rounds would overflow any ring); no \
            baseline diff"
           (Sweep.scenario_name v.scenario))

(* -- Heartbeat --------------------------------------------------------- *)

(* Long soaks are silent for minutes; the heartbeat streams periodic
   progress records through a Sink so an operator (or CI log) can see
   schedules completing and failures accumulating live.  Completion
   order under a pool is nondeterministic, so heartbeat records carry
   only monotone aggregates (done / failure counts), never per-index
   results — verdicts stay deterministic, the heartbeat is telemetry. *)
type heartbeat = {
  hb_sink : Sim.Sink.t;
  hb_every : int;
  hb_mutex : Mutex.t;  (* pool workers beat concurrently *)
  mutable hb_done : int;
  mutable hb_failed : int;
  mutable hb_retransmits : int;  (* cumulative recovery work, also monotone *)
  mutable hb_restarts : int;
}

let heartbeat ?(every = 8) ?(fields = []) sink =
  if every < 1 then invalid_arg "Runner.heartbeat: every must be >= 1";
  (* heartbeat files are schema-v2 streams like trace exports: a
     header line up front tells readers what vocabulary follows *)
  ignore
    (Sim.Sink.emit sink
       (Sim.Trace_export.stream_header ~kind:"chaos_heartbeat" ~fields ())
      : bool);
  Sim.Sink.flush sink;
  {
    hb_sink = sink;
    hb_every = every;
    hb_mutex = Mutex.create ();
    hb_done = 0;
    hb_failed = 0;
    hb_retransmits = 0;
    hb_restarts = 0;
  }

let hb_locked hb f =
  Mutex.lock hb.hb_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock hb.hb_mutex) f

let hb_emit hb line =
  ignore (Sim.Sink.emit hb.hb_sink line : bool);
  Sim.Sink.flush hb.hb_sink

(* the recovery tallies come after "failures" so pre-recovery readers
   (and the pinned substring tests) keep matching their prefix *)
let hb_soak_record scenario ~n ~seed ~total hb =
  Printf.sprintf
    "{\"type\":\"chaos_heartbeat\",\"scenario\":\"%s\",\"n\":%d,\"seed\":%d,\
     \"done\":%d,\"total\":%d,\"failures\":%d,\"retransmits\":%d,\
     \"restarts\":%d}"
    (Sweep.scenario_name scenario)
    n seed hb.hb_done total hb.hb_failed hb.hb_retransmits hb.hb_restarts

let hb_schedule_done hb scenario ~n ~seed ~total v =
  hb_locked hb (fun () ->
      hb.hb_done <- hb.hb_done + 1;
      if not v.ok then hb.hb_failed <- hb.hb_failed + 1;
      hb.hb_retransmits <- hb.hb_retransmits + v.retransmits;
      hb.hb_restarts <- hb.hb_restarts + v.restarts;
      if hb.hb_done mod hb.hb_every = 0 || hb.hb_done = total then
        hb_emit hb (hb_soak_record scenario ~n ~seed ~total hb))

let soak ?pool ?heartbeat:hb ?(liveness = false) scenario ~n ~seed ~schedules
    () =
  if schedules < 1 then invalid_arg "Runner.soak: schedules must be positive";
  (* a heartbeat is reusable across sequential soaks: progress counts
     restart with each soak, the sink keeps accumulating records *)
  (match hb with
  | Some hb ->
      hb_locked hb (fun () ->
          hb.hb_done <- 0;
          hb.hb_failed <- 0;
          hb.hb_retransmits <- 0;
          hb.hb_restarts <- 0)
  | None -> ());
  let generate =
    if liveness then Schedule.generate_healing else Schedule.generate
  in
  let indices = Array.init schedules Fun.id in
  let task index =
    let v = run_schedule ~liveness scenario (generate ~n ~seed ~index ()) in
    (match hb with
    | Some hb -> hb_schedule_done hb scenario ~n ~seed ~total:schedules v
    | None -> ());
    v
  in
  let verdicts =
    match pool with
    | Some p -> Parallel.Pool.map p task indices
    | None -> Array.map task indices
  in
  { soak_scenario = scenario; n; seed; verdicts }

(* -- Shrinking --------------------------------------------------------- *)

let still_fails ~liveness scenario s =
  (* a liveness failure is only meaningful on a healing schedule: a
     shrink step that drops a heal partner turns termination loss into
     a legitimate forfeit, so such candidates are not counterexamples *)
  (not liveness || Schedule.heals s)
  && not (run_schedule ~liveness scenario s).ok

let shrink ?heartbeat:hb verdict =
  if verdict.ok then
    invalid_arg "Runner.shrink: the verdict passed, nothing to shrink";
  let still_fails = still_fails ~liveness:verdict.liveness in
  let index = verdict.schedule.Schedule.index in
  let attempts = ref 0 in
  let predicate =
    match hb with
    | None -> still_fails verdict.scenario
    | Some hb ->
        (* every ddmin probe is one full scenario run: that is where a
           shrink spends its time, so that is what the heartbeat counts *)
        fun s ->
          let fails = still_fails verdict.scenario s in
          incr attempts;
          if !attempts mod hb.hb_every = 0 then
            hb_locked hb (fun () ->
                hb_emit hb
                  (Printf.sprintf
                     "{\"type\":\"chaos_shrink\",\"scenario\":\"%s\",\
                      \"schedule\":%d,\"attempts\":%d,\"faults\":%d,\
                      \"still_fails\":%b}"
                     (Sweep.scenario_name verdict.scenario)
                     index !attempts
                     (List.length s.Schedule.faults)
                     fails));
          fails
  in
  let minimal = Shrink.minimize ~still_fails:predicate verdict.schedule in
  let v = run_schedule ~liveness:verdict.liveness verdict.scenario minimal in
  (match hb with
  | Some hb ->
      hb_locked hb (fun () ->
          hb_emit hb
            (Printf.sprintf
               "{\"type\":\"chaos_shrunk\",\"scenario\":\"%s\",\"schedule\":%d,\
                \"attempts\":%d,\"faults\":%d,\"ok\":%b}"
               (Sweep.scenario_name verdict.scenario)
               index !attempts
               (List.length minimal.Schedule.faults)
               v.ok))
  | None -> ());
  v

(* Totals for the registry: like Pool.publish, counters sum so
   registries from several soaks merge order-independently. *)
let publish soak r =
  if Hardware.Registry.enabled r then begin
    let module R = Hardware.Registry in
    let faults =
      Array.fold_left
        (fun acc v -> acc + List.length v.schedule.Schedule.faults)
        0 soak.verdicts
    in
    R.add
      (R.counter r "chaos.schedules" ~help:"schedules executed")
      (Array.length soak.verdicts);
    R.add
      (R.counter r "chaos.oracle_failures" ~help:"schedules with a red oracle")
      (failures soak);
    R.add (R.counter r "chaos.faults_injected" ~help:"fault events armed")
      faults
  end

(* -- JSON -------------------------------------------------------------- *)

let oracle_json (r : Monitor.report) =
  Printf.sprintf "{\"oracle\":%s,\"ok\":%b,\"detail\":%s}"
    (Sim.Json.string r.Monitor.monitor)
    r.ok (Sim.Json.string r.detail)

let verdict_json v =
  Printf.sprintf
    "{\"scenario\":\"%s\",\"schedule\":%s,\"faults\":%d,\"liveness\":%b,\
     \"ok\":%b,\"oracles\":[%s],\"syscalls\":%d,\"hops\":%d,\"drops\":%d,\
     \"dropped_in_flight\":%d,\"retransmits\":%d,\"restarts\":%d,\"time\":%s}"
    (Sweep.scenario_name v.scenario)
    (Schedule.to_json v.schedule)
    (List.length v.schedule.Schedule.faults)
    v.liveness v.ok
    (String.concat "," (List.map oracle_json v.oracles))
    v.syscalls v.hops v.drops v.dropped_in_flight v.retransmits v.restarts
    (Sim.Json.float v.time)

(* Byte-identical for a fixed (scenario, n, seed, schedules) whatever
   the job count: verdicts are in submission order and contain only
   simulation-determined quantities — no wall clock, no job count. *)
let soak_json s =
  Printf.sprintf
    "{\"chaos\":\"%s\",\"n\":%d,\"seed\":%d,\"schedules\":%d,\"failures\":%d,\
     \"verdicts\":[%s]}"
    (Sweep.scenario_name s.soak_scenario)
    s.n s.seed (Array.length s.verdicts) (failures s)
    (String.concat ","
       (Array.to_list (Array.map verdict_json s.verdicts)))

(* -- Repro files ------------------------------------------------------- *)

let repro_magic = "futurenet-chaos"

let repro_json v =
  let failed =
    List.filter_map
      (fun (r : Monitor.report) ->
        if r.Monitor.ok then None
        else Some (Sim.Json.string r.monitor))
      v.oracles
  in
  Printf.sprintf
    "{\"repro\":\"%s\",\"version\":1,\"scenario\":\"%s\",\"liveness\":%b,\
     \"schedule\":%s,\"failed_oracles\":[%s]}"
    repro_magic
    (Sweep.scenario_name v.scenario)
    v.liveness
    (Schedule.to_json v.schedule)
    (String.concat "," failed)

let write_repro ~path v =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (repro_json v);
      output_char oc '\n')

let ( let* ) = Result.bind

let read_repro_full path =
  let* contents =
    match In_channel.with_open_text path In_channel.input_all with
    | contents -> Ok contents
    | exception Sys_error msg -> Error msg
  in
  let* doc = Sim.Json.parse contents in
  let* magic = Result.bind (Sim.Json.member "repro" doc) Sim.Json.to_string in
  let* () =
    if magic = repro_magic then Ok ()
    else Error (Printf.sprintf "not a chaos repro file (magic %S)" magic)
  in
  let* name = Result.bind (Sim.Json.member "scenario" doc) Sim.Json.to_string in
  let* scenario =
    match Sweep.scenario_of_string name with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "unknown scenario %S" name)
  in
  (* pre-recovery repro files carry no liveness key: safety mode *)
  let* liveness =
    match Sim.Json.member "liveness" doc with
    | Ok b -> Sim.Json.to_bool b
    | Error _ -> Ok false
  in
  let* () =
    if liveness && not (List.mem scenario liveness_scenarios) then
      Error (liveness_refusal scenario)
    else Ok ()
  in
  let* schedule_obj = Sim.Json.member "schedule" doc in
  let* schedule = Schedule.of_json_value schedule_obj in
  Ok (scenario, schedule, liveness)

let read_repro path =
  Result.map (fun (scenario, schedule, _) -> (scenario, schedule))
    (read_repro_full path)

let replay path =
  let* scenario, schedule, liveness = read_repro_full path in
  Ok (run_schedule ~liveness scenario schedule)

(* -- Human-readable summaries ------------------------------------------ *)

let pp_verdict ppf v =
  Format.fprintf ppf "%s%s schedule %d (n=%d seed=%d): %s — %d faults, %d syscalls, %d hops, %d drops (%d in flight)%s, time %g@."
    (Sweep.scenario_name v.scenario)
    (if v.liveness then "/liveness" else "")
    v.schedule.Schedule.index v.schedule.Schedule.n v.schedule.Schedule.seed
    (if v.ok then "ok" else "FAIL")
    (List.length v.schedule.Schedule.faults)
    v.syscalls v.hops v.drops v.dropped_in_flight
    (if v.liveness then
       Printf.sprintf ", %d retransmits, %d restarts" v.retransmits v.restarts
     else "")
    v.time;
  List.iter
    (fun (r : Monitor.report) ->
      if not r.Monitor.ok then
        Format.fprintf ppf "    %s: %s@." r.monitor r.detail)
    v.oracles

let pp_soak ppf s =
  let total_faults =
    Array.fold_left
      (fun acc v -> acc + List.length v.schedule.Schedule.faults)
      0 s.verdicts
  in
  let static =
    Array.fold_left
      (fun acc v -> if Schedule.is_static v.schedule then acc + 1 else acc)
      0 s.verdicts
  in
  Format.fprintf ppf
    "%-11s n=%-4d seed=%-6d %3d schedules (%d static, %d faults): %s@."
    (Sweep.scenario_name s.soak_scenario)
    s.n s.seed (Array.length s.verdicts) static total_faults
    (match failures s with
    | 0 -> "all oracles green"
    | f -> Printf.sprintf "%d FAILING" f);
  Array.iter (fun v -> if not v.ok then pp_verdict ppf v) s.verdicts
