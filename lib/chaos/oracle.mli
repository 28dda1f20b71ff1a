(** Safety oracles: trace oracles checked online while a chaos
    schedule runs, the rest after its quiescence point.

    Every oracle produces a {!Hardware.Monitor.report}, so chaos
    verdicts speak the same language as the paper-bound monitors and
    {!Hardware.Monitor.enforce} applies unchanged.  The oracles are
    the fault-tolerant counterparts of the fault-free theorems:

    - one-way broadcast state stays monotone — no NCU accepts the
      payload twice, whatever links flap (Theorem 1's mechanism);
    - among survivors at most one leader ever declares (Theorem 5's
      safety half; liveness is forfeit when faults strand a token);
    - topology maintenance converges per surviving component once the
      schedule quiesces (Theorem 1);
    - budgets scope to the post-failure component when the schedule is
      static (all faults at time 0). *)

type report = Hardware.Monitor.report

(** {1 Trace oracles, checked online}

    The oracles that read a run's trace consume its events as they are
    recorded: a {!tap} is the per-run state they need, and
    [observe tap] is the {!Sim.Trace.streaming} consumer that feeds it.
    Nothing is retained, so a run checked this way keeps no event
    list; a replay ({!Runner.replay_events}) hands each event on only
    after the tap has seen it. *)

type tap

val tap : Netgraph.Graph.t -> tap
(** Fresh state for one run on [graph], its FIFO table sized once for
    the graph's directed links. *)

val observe : tap -> Sim.Trace.event -> bool
(** Count a [Receive], clock a [Hop] on its directed link
    ({!Hardware.Monitor.Fifo}); ignore the rest.  Always [true], so the
    consumer never counts as a refusing sink. *)

val deliveries : tap -> int array
(** [Receive] events per node so far — NCU payload deliveries
    (software activations and timers are [Syscall] events and don't
    count). *)

val fifo_per_link : tap -> report
(** The §2 monitor over the hops observed so far: delay jitter must
    never reorder a directed link ({!Hardware.Monitor.Fifo}). *)

val at_most_once_delivery : deliveries:int array -> report
(** One-way broadcasts (branching paths, DFS token, direct, layered):
    no node's NCU receives the payload twice. *)

val degree_bounded_delivery :
  graph:Netgraph.Graph.t -> deliveries:int array -> report
(** Flooding's analogue: a node hears the payload at most once per
    incident link. *)

val static_component_scope :
  graph:Netgraph.Graph.t ->
  schedule:Schedule.t ->
  root:int ->
  deliveries:int array ->
  reached:bool array ->
  report
(** For a static schedule: no delivery lands outside the root's
    surviving component, and the per-component budget — at most one
    delivery per member — holds.  (A packet would have to cross a link
    that was already down to escape the component.) *)

val at_most_one_leader : leaders:int list -> report

val believed_consistent : leaders:int list -> believed:int option array -> report
(** Every node's announcement state is [None] or an actual declared
    leader — nobody believes in a ghost. *)

val election_budget_held : n:int -> deliveries:int -> report
(** Theorem 5's [6n] tour/return budget; faults only remove
    deliveries, so it binds a fortiori. *)

val convergence : converged:bool -> rounds:int -> report
(** Theorem-1 eventual consistency of the surviving components, as
    decided by [Topo_maintenance.run]'s per-component convergence
    check. *)

(** {1 Liveness oracles}

    Applicable only to {e healing} schedules ({!Schedule.heals}): once
    every fault heals before the quiescence horizon, the self-healing
    layer of DESIGN.md §16 turns the safety properties above into
    termination guarantees — the run must reach the correct terminal
    state within its retry/time budget, not merely avoid the incorrect
    ones. *)

val liveness_all_reached : reached:bool array -> report
(** Broadcast liveness: every node accepted the payload — the
    retransmit layer must have healed any fault-truncated wave. *)

val liveness_unique_leader :
  leaders:int list -> believed:int option array -> report
(** Election liveness: exactly one leader declared {e and} universally
    believed — unlike {!at_most_one_leader}, forfeiting to faults is a
    failure here. *)

val election_budget_recovering : n:int -> restarts:int -> deliveries:int -> report
(** Theorem 5's budget with the recovery allowance: each epoch restart
    re-runs at most one full election, so tour/return deliveries are
    bounded by [6n * (1 + restarts)]. *)

val retry_budget_respected : give_ups:int -> report
(** No watchdog exhausted its retry budget ([recover.give_ups] = 0):
    with all faults healed well inside the first backoff delay, every
    recovery must succeed before the cap. *)
