(** Deterministic replica sweeps over the seven profile scenarios.

    A sweep runs [replicas] independent instances of one scenario —
    replica [i] seeded by child [i] of {!Sim.Rng.split_n}, on its own
    random-connected graph, with its own private {!Sim.Trace} and
    {!Hardware.Registry} — optionally fanned over a {!Pool}.  The
    contract inherited from the pool: {!metrics_json} is byte-identical
    whatever the job count; only {!field-wall_s} moves. *)

type scenario =
  | Bpaths
  | Flood
  | Dfs
  | Direct
  | Layered
  | Election
  | Maintenance

(** The scenario table: every command that names or runs a family
    goes through these values, so adding or renaming a family touches
    this module alone. *)

val all_scenarios : scenario list

val scenario_name : scenario -> string
(** The family's name on the command line, in JSON output and in
    chaos repro files. *)

val scenario_of_string : string -> scenario option
(** The inverse of {!scenario_name}; [None] for any other string. *)

val broadcast_scenarios : scenario list
(** The five broadcast families, in {!all_scenarios} order. *)

val broadcast :
  scenario ->
  config:Core.Broadcast.config ->
  Compile.Topology.t ->
  root:int ->
  Core.Broadcast.result
(** [broadcast sc ~config art ~root] runs broadcast family [sc] on the
    artifact's graph from [root].  Branching paths from root 0 ships
    the artifact's compiled routes, fault plan or not; from any other
    root it compiles its own at start.
    @raise Invalid_argument if [sc] is not in {!broadcast_scenarios}. *)

type replica = {
  index : int;  (** submission index = Rng child index *)
  syscalls : int;
  hops : int;
  sends : int;  (** broadcast sends; election tours; maintenance rounds *)
  drops : int;
  max_header : int;  (** election: longest direct-message route *)
  time : float;
  covered : int;
      (** nodes reached / believing the leader / consistent views *)
  trace_events : int;  (** length of the replica's private trace *)
}

type t = {
  scenario : scenario;
  n : int;
  seed : int;
  jobs : int;
  replicas : replica array;  (** in submission order *)
  merged : Hardware.Registry.t;
      (** per-replica registries folded with {!Hardware.Registry.merge}
          in submission order *)
  wall_s : float;
  events : Sim.Trace.event list array;
      (** per-replica trace events, submission order — populated only
          under [run ~keep_events:true], empty lists otherwise.  Never
          part of {!metrics_json}: traces are for divergence forensics
          ({!Query.Diff}), not for the determinism contract. *)
}

val run :
  ?pool:Pool.t ->
  ?replicas:int ->
  ?keep_events:bool ->
  scenario ->
  n:int ->
  seed:int ->
  unit ->
  t
(** [run scenario ~n ~seed ()] executes [replicas] (default 8)
    independent replicas, through [pool] when given (inline otherwise).
    [keep_events] (default false) additionally returns every replica's
    trace events in {!field-events} — materialises up to
    100,000 events per replica, so reserve it for localising
    a divergence, not for routine sweeps.
    @raise Invalid_argument if [replicas < 1]. *)

val metrics_json : t -> string
(** The parallelism-invariant part: scenario, n, seed, per-replica
    metrics in submission order, and the merged registry.  Excludes
    the wall clock and job count by design — the determinism suite
    byte-compares this across job counts. *)

val to_json : t -> string
(** {!metrics_json} wrapped with [jobs], [replicas] and [wall_s]. *)

val pp : Format.formatter -> t -> unit
