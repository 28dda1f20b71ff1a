(* Tests for the self-healing layer (DESIGN.md §16): deterministic
   watchdogs and backoff, healing-schedule generation and validation,
   fault-plan hook idempotency, and the chaos liveness mode — healing
   schedules must reach correct terminal states under the liveness
   oracles, and recovery off must cost nothing. *)

module Sch = Chaos.Schedule
module R = Chaos.Runner
module Sweep = Parallel.Sweep
module N = Hardware.Network
module FP = Hardware.Fault_plan
module B = Netgraph.Builders

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* -- Sim.Timer watchdogs ----------------------------------------------- *)

let test_timer_supersede_and_cancel () =
  let engine = Sim.Engine.create () in
  let w = Sim.Timer.create engine in
  let w2 = Sim.Timer.create engine in
  let fired = ref 0 in
  Sim.Timer.arm w ~delay:1.0 (fun () -> fired := !fired + 1);
  (* re-arm supersedes: the first event drains as a no-op *)
  Sim.Timer.arm w ~delay:2.0 (fun () -> fired := !fired + 10);
  Sim.Timer.arm w2 ~delay:3.0 (fun () -> fired := !fired + 100);
  Sim.Timer.cancel w2;
  ignore (Sim.Engine.run engine);
  check_int "only the superseding arm fired" 10 !fired

let test_timer_rearm_from_callback () =
  let engine = Sim.Engine.create () in
  let w = Sim.Timer.create engine in
  let times = ref [] in
  let rec chain k () =
    times := Sim.Engine.now engine :: !times;
    if k < 3 then Sim.Timer.arm w ~delay:2.0 (chain (k + 1))
  in
  Sim.Timer.arm w ~delay:2.0 (chain 1);
  ignore (Sim.Engine.run engine);
  Alcotest.(check (list (float 1e-9)))
    "fires at 2,4,6" [ 2.0; 4.0; 6.0 ] (List.rev !times)

let test_backoff_delay_deterministic () =
  let b = Sim.Timer.backoff ~base:1.0 ~factor:2.0 ~cap:4.0 () in
  let d k = Sim.Timer.backoff_delay b ~rng:None ~attempt:k in
  Alcotest.(check (list (float 1e-9)))
    "doubles then caps" [ 1.0; 2.0; 4.0; 4.0; 4.0 ]
    [ d 0; d 1; d 2; d 3; d 4 ]

let test_backoff_jitter_bounded_and_seeded () =
  let b = Sim.Timer.backoff ~base:8.0 ~factor:2.0 ~cap:64.0 ~jitter:0.25 () in
  let draw seed k =
    Sim.Timer.backoff_delay b ~rng:(Some (Sim.Rng.create ~seed)) ~attempt:k
  in
  for k = 0 to 3 do
    let base = Float.min (8.0 *. Float.pow 2.0 (float_of_int k)) 64.0 in
    let d = draw 7 k in
    check_bool "within [base, base*1.25)" true (d >= base && d < base *. 1.25)
  done;
  Alcotest.(check (float 1e-12))
    "pure function of seed and attempt" (draw 7 2) (draw 7 2)

(* -- schedule validation (well_formed / of_json) ----------------------- *)

let orphan_recover =
  {
    Sch.seed = 1;
    index = 0;
    n = 16;
    jitter = 0.;
    faults = [ FP.Node_set { at = 1.0; node = 3; alive = true } ];
  }

let premature_recover =
  {
    orphan_recover with
    Sch.faults =
      [
        FP.Node_set { at = 2.0; node = 3; alive = false };
        FP.Node_set { at = 2.0; node = 3; alive = true };
      ];
  }

let test_well_formed_rejects_orphans () =
  check_bool "orphan recover rejected" true
    (Result.is_error (Sch.well_formed orphan_recover));
  check_bool "recover not after its crash rejected" true
    (Result.is_error (Sch.well_formed premature_recover));
  let valid =
    {
      orphan_recover with
      Sch.faults =
        [
          FP.Node_set { at = 1.0; node = 3; alive = false };
          FP.Node_set { at = 2.0; node = 3; alive = true };
        ];
    }
  in
  check_bool "crash-then-recover accepted" true
    (Sch.well_formed valid = Ok ())

let test_of_json_rejects_orphan_recover () =
  (match Sch.of_json (Sch.to_json orphan_recover) with
  | Ok _ -> Alcotest.fail "orphan node_recover decoded"
  | Error e ->
      check_bool "error names the orphan" true
        (contains e "no preceding node_crash"));
  match Sch.of_json (Sch.to_json premature_recover) with
  | Ok _ -> Alcotest.fail "premature node_recover decoded"
  | Error e ->
      check_bool "error names the ordering" true (contains e "strictly later")

(* -- fault-plan hook idempotency --------------------------------------- *)

let test_fault_plan_hook_fires_on_transitions_only () =
  let engine = Sim.Engine.create () in
  let net =
    N.create ~engine
      ~cost:(Hardware.Cost_model.new_model ())
      ~graph:(B.ring 6)
      ~handlers:(fun _ -> N.default_handlers)
      ()
  in
  let hooks = ref [] in
  let plan =
    [
      FP.Node_set { at = 1.0; node = 2; alive = false };
      FP.Node_set { at = 2.0; node = 2; alive = true };
      (* redundant revive: no state change, the hook must stay silent *)
      FP.Node_set { at = 3.0; node = 2; alive = true };
    ]
  in
  let on_node ~node ~alive = hooks := (node, alive) :: !hooks in
  FP.arm ~on_node net plan;
  ignore (Sim.Engine.run engine);
  Alcotest.(check (list (pair int bool)))
    "one hook per actual transition" [ (2, false); (2, true) ]
    (List.rev !hooks);
  check_bool "node ends alive" true (N.node_is_alive net 2)

(* -- healing schedules ------------------------------------------------- *)

let test_generate_healing_heals () =
  for index = 0 to 19 do
    let s = Sch.generate_healing ~n:24 ~seed:5 ~index () in
    check_bool "heals" true (Sch.heals s);
    check_bool "well-formed" true (Sch.well_formed s = Ok ());
    check_bool "quiesces before the horizon" true
      (FP.quiescence s.Sch.faults < Sch.default_horizon);
    check_bool "deterministic" true
      (Sch.equal s (Sch.generate_healing ~n:24 ~seed:5 ~index ()))
  done

let test_generate_leaves_wounds () =
  (* sanity: [heals] is not vacuous — plain generation leaves damage *)
  let wounded = ref 0 in
  for index = 0 to 19 do
    if not (Sch.heals (Sch.generate ~n:24 ~seed:5 ~index ())) then
      incr wounded
  done;
  check_bool "some plain schedules stay wounded" true (!wounded > 0)

(* -- liveness verdicts ------------------------------------------------- *)

let liveness_scenarios =
  [ Sweep.Bpaths; Sweep.Flood; Sweep.Election; Sweep.Maintenance ]

let failed_oracles v =
  List.filter_map
    (fun r ->
      if r.Hardware.Monitor.ok then None
      else Some (r.Hardware.Monitor.monitor ^ ": " ^ r.Hardware.Monitor.detail))
    v.R.oracles

let test_liveness_scenarios_green () =
  let retransmits = ref 0 and restarts = ref 0 in
  List.iter
    (fun sc ->
      for index = 0 to 9 do
        let s = Sch.generate_healing ~n:24 ~seed:11 ~index () in
        let v = R.run_schedule ~liveness:true sc s in
        if not v.R.ok then
          Alcotest.failf "%s index %d: %s" (Sweep.scenario_name sc) index
            (String.concat "; " (failed_oracles v));
        check_bool "verdict marked liveness" true v.R.liveness;
        retransmits := !retransmits + v.R.retransmits;
        restarts := !restarts + v.R.restarts
      done)
    liveness_scenarios;
  (* the layer actually worked for a living across those 40 runs *)
  check_bool "some retransmits happened" true (!retransmits > 0)

let test_liveness_rejects_unsupported_scenarios () =
  let s = Sch.generate_healing ~n:16 ~seed:1 ~index:0 () in
  check_bool "dfs unsupported in liveness mode" true
    (match R.run_schedule ~liveness:true Sweep.Dfs s with
    | (_ : R.verdict) -> false
    | exception Invalid_argument _ -> true)

let test_safety_mode_reports_zero_recovery () =
  let s = Sch.generate ~n:24 ~seed:11 ~index:0 () in
  let v = R.run_schedule Sweep.Bpaths s in
  check_bool "not liveness" false v.R.liveness;
  check_int "no retransmits in safety mode" 0 v.R.retransmits;
  check_int "no restarts in safety mode" 0 v.R.restarts

(* A verdict's counts come from the run's own results, with no registry
   attached.  Replaying the schedule as the runner configures it, with
   a registry attached, must read the same counts in the [net.*] and
   [recover.*] counters.  Over these 48 healing schedules per family,
   each family loses packets in flight (2, 3, 2 and 7 of them), the
   broadcasts retransmit and the election restarts. *)
let registry_replay sc (s : Sch.t) =
  let n = s.Sch.n in
  let registry = Hardware.Registry.create () in
  let cost = Sch.cost s and recover = Some (Hardware.Recover.default ~n) in
  let chaos = s.Sch.faults in
  let graph = Sch.graph_of s in
  (match sc with
  | Sweep.Election ->
      ignore
        (Core.Election.run_chaos ~cost ?recover ~registry ~chaos ~graph ()
          : Core.Election.chaos_outcome)
  | Sweep.Maintenance ->
      let params =
        {
          (Core.Topo_maintenance.default_params ()) with
          period = R.maintenance_period n;
          max_rounds = R.maintenance_rounds;
          preseed = true;
          reset_on_recover = true;
          cost;
          registry = Some registry;
          recover;
        }
      in
      ignore
        (Core.Topo_maintenance.run ~params ~chaos ~graph ~events:[] ()
          : Core.Topo_maintenance.outcome)
  | broadcast ->
      let config =
        {
          (Core.Broadcast.default_config ()) with
          cost;
          registry = Some registry;
          chaos = Some chaos;
          recover;
        }
      in
      ignore
        (Sweep.broadcast broadcast ~config (Sch.artifact_of s) ~root:0
          : Core.Broadcast.result));
  fun name ->
    match Hardware.Registry.find_counter registry name with
    | Some c -> Hardware.Registry.counter_value c
    | None -> 0

let test_verdict_counts_equal_registry_replay () =
  let totals = Hashtbl.create 8 in
  let add key k =
    Hashtbl.replace totals key
      (k + Option.value ~default:0 (Hashtbl.find_opt totals key))
  in
  List.iter
    (fun sc ->
      for index = 0 to 47 do
        let s = Sch.generate_healing ~n:32 ~seed:3 ~index () in
        let v = R.run_schedule ~liveness:true sc s in
        let counter = registry_replay sc s in
        let agree what verdict name =
          check_int
            (Printf.sprintf "%s index %d: %s" (Sweep.scenario_name sc) index
               what)
            (counter name) verdict;
          add (sc, what) verdict
        in
        agree "syscalls" v.R.syscalls "net.syscalls";
        agree "drops" v.R.drops "net.drops";
        agree "dropped_in_flight" v.R.dropped_in_flight "net.dropped_in_flight";
        agree "retransmits" v.R.retransmits "recover.retransmits";
        agree "restarts" v.R.restarts "recover.restarts";
        agree "give_ups" v.R.give_ups "recover.give_ups"
      done)
    liveness_scenarios;
  (* the comparisons are not all between zeros *)
  let total sc what =
    Option.value ~default:0 (Hashtbl.find_opt totals (sc, what))
  in
  List.iter
    (fun sc ->
      check_bool
        (Sweep.scenario_name sc ^ " lost packets in flight")
        true
        (total sc "dropped_in_flight" > 0))
    liveness_scenarios;
  check_bool "bpaths retransmitted" true (total Sweep.Bpaths "retransmits" > 0);
  check_bool "flood retransmitted" true (total Sweep.Flood "retransmits" > 0);
  check_bool "election restarted" true (total Sweep.Election "restarts" > 0)

(* A node that crashes at time 0 and never recovers can never ack: the
   root retransmits until its budget is spent, then gives up once, and
   the retry-budget oracle judges that. *)
let test_unrecovered_node_exhausts_retry_budget () =
  let s =
    {
      Sch.seed = 1;
      index = 0;
      n = 16;
      jitter = 0.0;
      faults = [ FP.Node_set { at = 0.0; node = 5; alive = false } ];
    }
  in
  let v = R.run_schedule ~liveness:true Sweep.Bpaths s in
  check_int "one give-up" 1 v.R.give_ups;
  check_int "every retry spent"
    (Hardware.Recover.default ~n:16).Hardware.Recover.max_retries
    v.R.retransmits;
  let retry_budget =
    List.find (fun r -> r.Hardware.Monitor.monitor = "retry-budget") v.R.oracles
  in
  check_bool "retry-budget oracle fails" false retry_budget.Hardware.Monitor.ok;
  check_bool "verdict fails" false v.R.ok

(* -- zero overhead when off -------------------------------------------- *)

let election_trace ?recover graph =
  let trace = Sim.Trace.create ~capacity:65536 () in
  let o = Core.Election.run ?recover ~trace ~graph () in
  (o.Core.Election.leader, o.Core.Election.election_syscalls,
   Sim.Trace.events trace)

let test_recovery_on_is_invisible_without_faults () =
  (* a fault-free election with the watchdog layer armed must produce
     the identical trace: every dog is cancelled before it fires, and a
     cancelled dog is a pure engine no-op *)
  let graph = Sch.graph_of (Sch.generate ~n:24 ~seed:3 ~index:1 ()) in
  let l0, sys0, ev0 = election_trace graph in
  let l1, sys1, ev1 =
    election_trace ~recover:(Hardware.Recover.default ~n:24) graph
  in
  check_int "same leader" l0 l1;
  check_int "same syscall count" sys0 sys1;
  check_bool "byte-identical event stream" true (ev0 = ev1)

(* A fault-free recovering broadcast: every non-root node's ack lands
   at the root, so the root counts n-1 acks and its watchdog is
   cancelled before it ever expires.  An ack counted where it did not
   land at the root would complete the run all the same; ignored, it
   shows as timeouts and retransmits. *)
let test_fault_free_acks_reach_the_root () =
  let n = 64 in
  let graph = B.random_connected (Sim.Rng.create ~seed:5) ~n ~extra_edges:n in
  List.iter
    (fun (name, run) ->
      let registry = Hardware.Registry.create () in
      let config =
        {
          (Core.Broadcast.default_config ()) with
          recover = Some (Hardware.Recover.default ~n);
          registry = Some registry;
        }
      in
      let r : Core.Broadcast.result = run ~config in
      let counter c =
        match Hardware.Registry.find_counter registry ("recover." ^ c) with
        | Some c -> Hardware.Registry.counter_value c
        | None -> Alcotest.failf "%s: recover.%s not registered" name c
      in
      check_bool (name ^ " reached everyone") true
        (Array.for_all Fun.id r.Core.Broadcast.reached);
      check_int (name ^ " acks") (n - 1) (counter "acks");
      List.iter
        (fun c -> check_int (name ^ " " ^ c) 0 (counter c))
        [ "timeouts"; "retransmits"; "give_ups" ])
    [
      ("bpaths",
       fun ~config -> Core.Branching_paths.run ~config ~graph ~root:0 ());
      ("flood", fun ~config -> Core.Flooding.run ~config ~graph ~root:0 ());
    ]

(* -- repro round-trip and replay --------------------------------------- *)

let test_liveness_repro_roundtrip () =
  let s = Sch.generate_healing ~n:16 ~seed:4 ~index:2 () in
  let v = R.run_schedule ~liveness:true Sweep.Flood s in
  let path = Filename.temp_file "recover_repro" ".json" in
  R.write_repro ~path v;
  (match R.replay path with
  | Error e -> Alcotest.fail e
  | Ok v' ->
      check_bool "replay runs in liveness mode" true v'.R.liveness;
      check_bool "replay schedule round-trips" true
        (Sch.equal v.R.schedule v'.R.schedule);
      check_bool "replay verdict agrees" true (v.R.ok = v'.R.ok);
      check_int "replay retransmits agree" v.R.retransmits v'.R.retransmits);
  Sys.remove path

(* -- heartbeat recovery tallies ---------------------------------------- *)

let test_liveness_heartbeat_fields () =
  let buf = Buffer.create 256 in
  let sink = Sim.Sink.buffer buf in
  let hb = R.heartbeat ~every:2 sink in
  ignore
    (R.soak ~heartbeat:hb ~liveness:true Sweep.Bpaths ~n:16 ~seed:2
       ~schedules:4 ()
      : R.soak);
  let lines =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> l <> "")
  in
  let final = List.nth lines (List.length lines - 1) in
  check_bool "final beat reports completion" true
    (contains final {|"done":4,"total":4,"failures":0|});
  check_bool "carries retransmit tally" true (contains final {|"retransmits":|});
  check_bool "carries restart tally" true (contains final {|"restarts":|});
  Sim.Sink.close sink

(* -- stranded tours ------------------------------------------------------ *)

(* Two healing schedules on which a fault loses a capture's Return: a
   later tour climbs the captured node's parent walk to an origin that
   never merged its domain, so the tour has no route home.  The
   election must drop it and heal through its origin's watchdog. *)
let test_election_drops_stranded_tours () =
  List.iter
    (fun (seed, index) ->
      let s = Sch.generate_healing ~n:256 ~seed ~index () in
      let v = R.run_schedule ~liveness:true Sweep.Election s in
      if not v.R.ok then
        Alcotest.failf "(%d,%d): %s" seed index
          (String.concat "; " (failed_oracles v)))
    [ (23, 50); (85, 18) ]

(* -- the qcheck liveness property -------------------------------------- *)

let prop_healing_schedules_live =
  (* 200 healing schedules spread across the three protocols (broadcast
     via both bpaths and flood) at n ∈ {64, 256}: the liveness oracles
     must hold on every one *)
  QCheck.Test.make ~count:200
    ~name:"healing schedules reach correct terminal states (n in {64,256})"
    QCheck.(pair small_int (int_bound 63))
    (fun (seed, index) ->
      let scenarios =
        [| Sweep.Bpaths; Sweep.Flood; Sweep.Election; Sweep.Maintenance |]
      in
      let sc = scenarios.(index mod 4) in
      let n = if (seed + index / 4) mod 2 = 0 then 64 else 256 in
      let s = Sch.generate_healing ~n ~seed ~index () in
      if not (Sch.heals s) then
        QCheck.Test.fail_reportf "schedule (%d,%d) does not heal" seed index;
      let v = R.run_schedule ~liveness:true sc s in
      if not v.R.ok then
        QCheck.Test.fail_reportf "%s n=%d (%d,%d): %s"
          (Sweep.scenario_name sc) n seed index
          (String.concat "; " (failed_oracles v));
      true)

let suite =
  [
    Alcotest.test_case "timer supersede and cancel" `Quick
      test_timer_supersede_and_cancel;
    Alcotest.test_case "timer re-arm from callback" `Quick
      test_timer_rearm_from_callback;
    Alcotest.test_case "backoff delay deterministic" `Quick
      test_backoff_delay_deterministic;
    Alcotest.test_case "backoff jitter bounded and seeded" `Quick
      test_backoff_jitter_bounded_and_seeded;
    Alcotest.test_case "well_formed rejects orphan recovers" `Quick
      test_well_formed_rejects_orphans;
    Alcotest.test_case "of_json rejects orphan recovers" `Quick
      test_of_json_rejects_orphan_recover;
    Alcotest.test_case "fault-plan hook fires on transitions only" `Quick
      test_fault_plan_hook_fires_on_transitions_only;
    Alcotest.test_case "generate_healing heals" `Quick
      test_generate_healing_heals;
    Alcotest.test_case "plain generation leaves wounds" `Quick
      test_generate_leaves_wounds;
    Alcotest.test_case "liveness scenarios green on healing schedules" `Quick
      test_liveness_scenarios_green;
    Alcotest.test_case "liveness rejects unsupported scenarios" `Quick
      test_liveness_rejects_unsupported_scenarios;
    Alcotest.test_case "safety mode reports zero recovery" `Quick
      test_safety_mode_reports_zero_recovery;
    Alcotest.test_case "verdict counts equal a registry replay" `Quick
      test_verdict_counts_equal_registry_replay;
    Alcotest.test_case "a node that never recovers exhausts the retry budget"
      `Quick test_unrecovered_node_exhausts_retry_budget;
    Alcotest.test_case "recovery on is invisible without faults" `Quick
      test_recovery_on_is_invisible_without_faults;
    Alcotest.test_case "fault-free recovering acks reach the root" `Quick
      test_fault_free_acks_reach_the_root;
    Alcotest.test_case "liveness repro round-trip" `Quick
      test_liveness_repro_roundtrip;
    Alcotest.test_case "liveness heartbeat fields" `Quick
      test_liveness_heartbeat_fields;
    QCheck_alcotest.to_alcotest prop_healing_schedules_live;
    Alcotest.test_case "election drops stranded tours" `Quick
      test_election_drops_stranded_tours;
  ]
