(** Causal critical-path profiling with C/P cost attribution.

    The paper's bounds are time-shaped: branching-paths broadcast in
    [≤ 1 + log₂ n] NCU steps (Theorem 2), elections bounded per
    candidate phase (Theorem 5), every delay split into switching time
    [C] and processing time [P] (Section 2).  This module explains
    {e where} that time went: starting from the termination event of an
    {!Event_dag}, it walks the chain of {e binding} constraints — at
    every event, the predecessor that actually determined its time —
    and decomposes each step of the resulting path into

    - [work]: the intrinsic cost the model charges ([P] for an NCU
      activation, [C] for a hop, nothing for an injection), and
    - [wait]: time spent queued behind an earlier activation of the
      same NCU or an earlier packet on the same FIFO link.

    Everything off the path has {!slack}: how long it could be delayed
    without moving termination.  Attribution sums path time per node,
    per phase (the trace labels) and per directed link.

    The decomposition is exact for deterministic cost models (the
    delay bounds are realised exactly); under random delays it is the
    worst-case split, as in the paper's remark that increasing a delay
    never speeds up an execution. *)

type step_kind =
  | Delivery  (** a packet reached an NCU: one P *)
  | Activation  (** a software activation (trigger, timer): one P *)
  | Switch  (** a hop through switching hardware: one C *)
  | Injection  (** a send — free in the cost model *)

type step = {
  idx : int;  (** chronological index of the event in the trace *)
  kind : step_kind;
  node : int;  (** node charged (hop: the destination) *)
  link : (int * int) option;  (** for {!Switch}: the directed link *)
  time : float;  (** completion time of the event *)
  elapsed : float;  (** time since the previous path step *)
  work : float;  (** C or P share of [elapsed] *)
  wait : float;  (** [elapsed - work]: queueing / FIFO blocking *)
  label : string;  (** phase label (hops: their packet's send label) *)
}

type t = {
  steps : step list;  (** chronological; never empty *)
  t_start : float;
  t_end : float;
  span : float;  (** [t_end - t_start] *)
  deliveries : int;  (** P-steps of the path caused by packet delivery *)
  activations : int;  (** P-steps caused by software activation *)
  hops : int;  (** C-steps *)
  sends : int;
  p_time : float;
  c_time : float;
  queue_wait : float;
  fifo_wait : float;
  per_node : (int * float) list;  (** attributed time, descending *)
  per_phase : (string * float) list;
  per_link : ((int * int) * float) list;
  truncated : int;  (** trace events lost before reconstruction *)
}

val compute : ?cost:Hardware.Cost_model.t -> Event_dag.t -> t option
(** The critical path to the DAG's {!Event_dag.terminal} event, under
    [cost] (default: the limiting model [C = 0, P = 1]).  [None] when
    the trace has no NCU activation to terminate at. *)

val critical_indices : t -> int list
(** Ascending chronological indices of the path's events — feed to
    [Sim.Trace_export.chrome ~decorate] to colour the path. *)

(** {1 Slack of off-critical events} *)

val slack : ?cost:Hardware.Cost_model.t -> Event_dag.t -> float array
(** Per-event slack: how much later the event could have completed
    without delaying termination.  Events on the critical path have
    slack [0]. *)

type slack_stats = {
  events : int;
  zero_slack : int;  (** events with no room at all *)
  max_slack : float;
  mean_slack : float;
}

val slack_stats : ?cost:Hardware.Cost_model.t -> Event_dag.t -> slack_stats

(** {1 Rendering} *)

val pp : Format.formatter -> t -> unit
(** Human-readable report: summary line, C/P split, attribution
    tables, then the path itself (elided in the middle beyond 32
    steps, with an explicit count of what was skipped). *)

val to_json : t -> string
(** Deterministic JSON ([%.12g] floats, fixed field order): summary,
    attribution, and the full step list. *)

val slack_stats_json : slack_stats -> string
