(** The leader-election algorithm of Section 4.

    Every node starts as a candidate owning the domain [{itself}].
    An active candidate tours: it travels (by direct messages) to a
    node [o] outside its domain, then climbs the virtual-tree parent
    pointers toward that domain's origin — but never more than
    [phase + 1] direct messages, where [phase = floor(log2 size)].
    Reaching a lower-level origin captures that whole domain (merging
    the INOUT trees keeps every needed route linear); meeting a
    higher-level candidate, or running out of hops, makes the tourer
    permanently inactive.  Waiting at a busy origin follows rules
    (2.3)/(2.4).  The unique survivor — whose OUT set empties —
    declares itself leader.

    Theorem 5: at most [6n] direct messages (system calls) in total;
    time is O(n).  The election itself is measured separately from
    the final leader announcement (an extra O(n)-system-call tour
    over the leader's INOUT tree, needed so that every node reaches
    the [leader.elected] state required by the problem statement). *)

type outcome = {
  leader : int;
  believed_leader : int option array;
      (** what each node believes after the announcement *)
  election_syscalls : int;
      (** deliveries of tour and return messages — the quantity
          Theorem 5 bounds by 6n *)
  start_syscalls : int;  (** the n initial activations *)
  announce_syscalls : int;
  total_syscalls : int;
  hops : int;
  time : float;
  tours : int;  (** tours undertaken across all candidates *)
  captures : int;
  max_route : int;  (** longest direct-message route used, in hops *)
  notify_syscalls : int;
      (** deliveries of supporter notifications; 0 unless
          [notify_supporters] *)
  spanning_tree : Netgraph.Tree.t Lazy.t;
      (** the leader's final INOUT tree — a spanning tree of the
          network rooted at the leader, a useful by-product: it can
          carry the Section 3 broadcasts of the reorganised network.
          Built when first forced. *)
}

val run :
  ?cost:Hardware.Cost_model.t ->
  ?starters:int list ->
  ?rng:Sim.Rng.t ->
  ?notify_supporters:bool ->
  ?recover:Hardware.Recover.t ->
  ?trace:Sim.Trace.t ->
  ?registry:Hardware.Registry.t ->
  graph:Netgraph.Graph.t ->
  unit ->
  outcome
(** Run one election to quiescence.  [starters] (default: every node)
    are triggered at time 0; any other node joins when first touched
    by the algorithm, as in the paper.  When [rng] is given, each
    candidate picks tour targets uniformly from its OUT set instead of
    taking the smallest id, and the cost model's delays are whatever
    [cost] samples — useful for property tests across schedules.

    [notify_supporters] turns on the naive variant the paper rejects
    in Section 4: after every capture the winner sends a direct
    message to each member of the captured domain with the new route.
    The extra deliveries (reported in [notify_syscalls]) grow as
    Θ(n log n), demonstrating why the algorithm leaves supporters
    un-notified.

    [trace] records the hardware events of the run for export;
    [registry] additionally receives the [net.*] instruments plus
    [election.tours], [election.captures] and the [election.route_len]
    histogram.

    @raise Invalid_argument if the graph is disconnected or
    [starters] is empty. *)

(** {1 Election under injected faults} *)

type chaos_outcome = {
  leaders : int list;
      (** nodes that declared themselves leader, ascending; [[]] when
          faults starved every candidate (a touring candidate whose
          token was lost waits forever), at most one element when the
          paper's safety argument holds *)
  believed : int option array;
      (** announcement state per node; a partitioned or crashed node
          may legitimately still believe [None] or a stale leader *)
  election_deliveries : int;
      (** tour/return deliveries — the 6n budget of Theorem 5 is a
          valid bound a fortiori, faults only remove deliveries *)
  chaos_syscalls : int;  (** all NCU activations incl. link-change *)
  chaos_hops : int;
  chaos_drops : int;
  chaos_dropped_in_flight : int;  (** the part of [chaos_drops] lost mid-link *)
  chaos_time : float;
  restarts : int;
      (** epoch restarts of the recovery layer (watchdog expiries and
          post-crash rejoins); 0 without [recover] *)
  give_ups : int;  (** watchdogs that spent their node's restart budget *)
}

val run_chaos :
  ?cost:Hardware.Cost_model.t ->
  ?starters:int list ->
  ?rng:Sim.Rng.t ->
  ?recover:Hardware.Recover.t ->
  ?trace:Sim.Trace.t ->
  ?registry:Hardware.Registry.t ->
  ?chaos:Hardware.Fault_plan.t ->
  graph:Netgraph.Graph.t ->
  unit ->
  chaos_outcome
(** Like {!run} but with a fault plan armed before the starters fire,
    and an outcome that tolerates fault-induced liveness loss: instead
    of raising when no (or, would it ever happen, more than one)
    leader emerges, it reports every declared leader so the chaos
    oracles can check at-most-one-leader among survivors.  The graph
    must be connected at time 0; the plan may disconnect it later.

    [recover] turns on the epoch-restart layer (DESIGN.md §16): a
    touring origin arms a per-tour watchdog; an expiry with the tour
    still outstanding restarts the node as a fresh singleton candidate
    in the next epoch (capped exponential backoff, bounded restart
    budget).  Every message carries its epoch; stale-epoch messages
    are dropped and a newer epoch makes the receiver re-join.  With
    recovery on, [election_deliveries] is bounded by
    [6n * (1 + restarts)] rather than the fault-free [6n]. *)
