(** The chaos soak runner: generate → inject → check → shrink.

    One schedule runs one scenario instance end to end: regenerate the
    graph from [(seed, index)], arm the compiled fault plan, run to
    quiescence (maintenance: to its round budget), then evaluate the
    scenario's oracles.  The trace oracles (delivery counts, per-link
    FIFO) consume events online through an {!Oracle.tap}, so
    {!run_schedule} retains no event.  {!replay_events} re-runs a
    schedule as a live event stream, which {!baseline_divergence}
    diffs against its fault-free twin in lockstep, so a replay keeps
    no event either beyond {!Query.Diff}'s window.  A soak fans [schedules]
    consecutive indices through a {!Parallel.Pool}; because every
    verdict is a pure function of [(scenario, n, seed, index)],
    {!soak_json} is byte-identical at any job count.

    A run attaches no {!Hardware.Registry}: every count a verdict
    carries comes from the protocol's own result — the network's
    {!Hardware.Metrics} (drops, in-flight losses) and the recovery
    layer's {!Hardware.Recover.tally} (retransmits, restarts,
    give-ups).  A replay with a registry attached reads the same
    counts in its [net.*] and [recover.*] counters. *)

type scenario = Parallel.Sweep.scenario

type verdict = {
  scenario : scenario;
  schedule : Schedule.t;
  liveness : bool;
      (** the run executed in liveness mode: recovery enabled
          ({!Hardware.Recover.default}), liveness oracles in force *)
  oracles : Hardware.Monitor.report list;
  ok : bool;  (** all oracles green *)
  syscalls : int;
  hops : int;
  drops : int;
  dropped_in_flight : int;  (** the part of [drops] lost mid-link *)
  retransmits : int;
      (** broadcast re-sends of the recovery layer; 0 in safety mode *)
  restarts : int;  (** election epoch restarts; 0 in safety mode *)
  give_ups : int;
      (** watchdogs that spent their retry budget, what the
          [retry-budget] oracle judges; 0 in safety mode.  Not in
          {!verdict_json}. *)
  time : float;  (** simulation time, never wall clock *)
}

type soak = {
  soak_scenario : scenario;
  n : int;
  seed : int;
  verdicts : verdict array;  (** in schedule-index order *)
}

val failures : soak -> int

val liveness_scenarios : scenario list
(** The families with a recovery layer, the only ones liveness mode
    runs: bpaths, flood, election and maintenance. *)

val maintenance_period : int -> float
(** The maintenance round period on [n] nodes, [2n]: it clears the NCU
    throughput bound of n activations per node per round with room for
    each round's backlog to drain. *)

val maintenance_rounds : int
(** The maintenance round budget, 12. *)

val run_schedule : ?liveness:bool -> scenario -> Schedule.t -> verdict
(** Deterministic: depends only on the arguments.  With
    [liveness:true] (default false) the scenario runs with the
    self-healing layer enabled ([Hardware.Recover.default ~n]) and is
    judged by the liveness oracles: for a schedule that {!Schedule.heals},
    the protocol must reach its correct terminal state within the
    retry/time budget — all nodes reached (broadcasts), a unique
    universally-believed leader within [6n(1+restarts)] deliveries
    (election), convergence (maintenance), and no watchdog give-ups.
    Liveness mode supports bpaths, flood, election and maintenance.
    @raise Invalid_argument for other scenarios in liveness mode. *)

val replay_events :
  ?liveness:bool -> scenario -> Schedule.t -> Sim.Trace.event Seq.t
(** The events of {!run_schedule}'s run, in recording order, as a
    live stream: forcing the sequence runs the schedule up to its next
    event and suspends it there (an OCaml effect performed by the
    run's trace consumer, after the oracle tap has seen the event), so
    a consumer holds only the event in hand, and one that stops early
    never runs the rest.  The sequence is ephemeral: traverse it once.
    @raise Invalid_argument for maintenance, which runs untraced (its
    one oracle, convergence, reads the protocol's outcome); in liveness
    mode, forcing the sequence raises as {!run_schedule} does. *)

val baseline_divergence : ?window:int -> verdict -> (string, string) result
(** Localise a failing verdict: replay its schedule ({!replay_events}),
    replay the fault-free twin ([faults = []] — same seed, index and
    jitter, so the same graph, cost model and rng streams), and render
    the first divergence between the two streams as a {!Query.Diff}
    report — the first observable effect of the fault set.  The two
    replays advance in lockstep through {!Query.Diff.of_seq} and stop
    at the divergence, so the report indexes events from the start of
    the run whatever its length.  [Error] for maintenance, which runs
    untraced.  Deterministic; callable on any verdict (a passing
    schedule whose faults never perturbed the trace reports the traces
    identical). *)

(** {1 Heartbeat}

    Periodic JSONL progress records streamed through a {!Sim.Sink.t},
    so a long soak is observable while it runs.  Records carry only
    monotone aggregates (schedules done, failures so far) — completion
    order under a pool is nondeterministic, and the heartbeat must not
    leak it into anything deterministic.  Record types:
    [chaos_heartbeat] (soak progress), [chaos_shrink] (ddmin probes),
    [chaos_shrunk] (shrink result). *)

type heartbeat

val heartbeat :
  ?every:int -> ?fields:(string * string) list -> Sim.Sink.t -> heartbeat
(** Beat every [every] completed schedules / shrink probes (default
    8; the final completion always beats).  Creation immediately
    writes a {!Sim.Trace_export.stream_header} line (kind
    ["chaos_heartbeat"], with [fields] as extra metadata — values are
    pre-rendered JSON), so heartbeat files are schema-versioned
    streams like trace exports.  The caller owns the sink.
    A heartbeat may be reused across sequential soaks and shrinks —
    progress counts restart with each soak, the sink keeps
    accumulating records, emission is serialised.
    @raise Invalid_argument if [every < 1]. *)

val soak :
  ?pool:Parallel.Pool.t ->
  ?heartbeat:heartbeat ->
  ?liveness:bool ->
  scenario ->
  n:int ->
  seed:int ->
  schedules:int ->
  unit ->
  soak
(** Run schedule indices [0 .. schedules-1], through [pool] when given.
    With [liveness:true] the schedules come from
    {!Schedule.generate_healing} (every fault heals before the
    horizon) and each runs in liveness mode; heartbeat records then
    carry the cumulative retransmit/restart tallies.
    @raise Invalid_argument if [schedules < 1]. *)

val shrink : ?heartbeat:heartbeat -> verdict -> verdict
(** Delta-debug then magnitude-shrink the failing verdict's schedule
    ({!Shrink.minimize} with "this scenario's oracles still fail" as
    the predicate) and re-run the minimal schedule.  A liveness verdict
    shrinks under the predicate "still heals and still fails", so
    dropping a heal partner (which would merely forfeit liveness)
    never masquerades as a smaller counterexample.
    @raise Invalid_argument on a passing verdict. *)

(** {1 JSON} *)

val verdict_json : verdict -> string
(** One verdict as a JSON object: scenario, schedule, oracles and the
    run's counters. *)

val soak_json : soak -> string
(** Deterministic across job counts (no wall clock, no job count). *)

(** {1 Repro files} *)

val write_repro : path:string -> verdict -> unit
(** Write the verdict's schedule (typically post-{!shrink}) with its
    failed oracle names as a self-contained JSON repro file. *)

val replay : string -> (verdict, string) result
(** Read a repro file and {!run_schedule} its schedule.  [Error] for a
    file that is not a chaos repro, an unknown scenario, a schedule
    {!Schedule.well_formed} refuses, or liveness mode asked of a family
    outside {!liveness_scenarios}: whatever it accepts runs without
    raising. *)

(** {1 Pretty-printing} *)

val pp_verdict : Format.formatter -> verdict -> unit
val pp_soak : Format.formatter -> soak -> unit
