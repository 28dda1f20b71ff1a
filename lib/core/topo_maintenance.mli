(** The full topology-maintenance protocol of Section 3.

    Every node periodically broadcasts topology information with an
    incremented sequence number; remote information is merged by
    freshness; eventual consistency means that once topological
    changes stop, every node's believed topology converges to the
    true state of its connected component (Theorem 1, after [T77]).

    The broadcast primitive is pluggable so the paper's comparison can
    be measured like-for-like:
    - [Branching] — the paper's one-way branching-paths broadcast over
      the minimum-hop tree of the broadcaster's current view; n system
      calls and O(log n) time per broadcast, convergent under
      failures;
    - [Flood] — ARPANET flooding; O(m) system calls, O(n) time,
      convergent;
    - [Dfs_token] — the single depth-first token; n system calls and
      one time unit, but {e not} one-way convergent: with the cyclic
      child order of the Section 3 example it deadlocks forever.

    By default each node broadcasts only its own local view (so full
    knowledge needs O(diameter) rounds); with [full_view] it
    broadcasts everything it knows, cutting convergence to
    O(log diameter) rounds (the comment after Theorem 1). *)

type method_ = Branching | Flood | Dfs_token

type params = {
  method_ : method_;
  period : float;  (** time between a node's successive broadcasts *)
  max_rounds : int;  (** give up declaring convergence after this *)
  full_view : bool;  (** broadcast the whole database, not just own view *)
  preseed : bool;
      (** start every node with complete (pre-failure) topology
          knowledge, as in the Section 3 example *)
  cost : Hardware.Cost_model.t;
  dfs_child_order : (self:int -> children:int list -> int list) option;
      (** tour-order choice for [Dfs_token]; default increasing ids *)
  dmax : int option;
      (** when set, the hardware refuses headers longer than this
          (counted as drops) — the Section 2 path-length restriction
          applied live; the branching-paths broadcast needs at most n
          elements while a depth-first token needs up to 2n *)
  stagger : Sim.Rng.t option;
      (** when set, each node's periodic broadcasts start at a uniform
          random offset within the first period instead of in
          lockstep — eventual consistency must be schedule-independent *)
  trace : Sim.Trace.t option;
      (** when set, the run records hardware events into this trace *)
  registry : Hardware.Registry.t option;
      (** when set, receives the [net.*] instruments plus
          [maint.broadcasts] and the [maint.rounds] gauge *)
  reset_on_recover : bool;
      (** when a node recovers (a [Node_set] of the chaos plan), it
          rejoins with an empty remote database: only its own local
          view survives, rebuilt from the links it can see.  Its own
          sequence counter is kept, so its first post-recovery
          broadcast outranks any stale view of it held elsewhere.
          Default [false] (the historical behaviour: a revived node
          resumes with its stale pre-failure database). *)
  origins : int list option;
      (** when set, only these nodes run the periodic broadcast (the
          others still record link state, merge views and relay).
          Convergence then means dissemination: every node holds each
          origin's freshest view — checked in Θ(n·k) per round, and
          only the k origins track a believed-edge bitset, which is
          what lets the scaling bench run maintenance rounds at
          n=65536 and beyond.  [None] (default) is the full protocol:
          every node broadcasts and convergence is the [T77]
          consistency check, one bitset compare per node against the
          round's live links (DESIGN.md §15). *)
  recover : Hardware.Recover.t option;
      (** when set, a recovering origin resumes its round immediately:
          the node-recovery hook triggers an out-of-period rebroadcast
          (one extra activation, counted in [recover.resumes]) instead
          of waiting for the next periodic tick — combined with
          [reset_on_recover], the node re-seeds its fresh view into
          the network the moment it revives (DESIGN.md §16).  The
          periodic timer chain is unaffected.  Default [None]. *)
}

val default_params : unit -> params
(** Branching method, period 64, 64 max rounds, own-view only, no
    preseed, C=0/P=1 cost, no reset on recovery, all nodes broadcast. *)

type event = { at : float; edge : int * int; up : bool }
(** A scheduled link transition. *)

type outcome = {
  converged : bool;
  rounds : int;
      (** broadcast rounds completed when convergence was first
          observed (or [max_rounds]) *)
  syscalls : int;
  hops : int;
  time : float;  (** simulation time at the final convergence check *)
  correct_per_round : int list;
      (** after each round, how many nodes' views were consistent *)
  dbs : Topology.db array;
      (** each node's final database — inspectable by tests and the
          chaos oracles (e.g. what a reset node knows after revival) *)
}

val run :
  ?params:params ->
  ?chaos:Hardware.Fault_plan.t ->
  graph:Netgraph.Graph.t ->
  events:event list ->
  unit ->
  outcome
(** Run the protocol under the scheduled link [events] followed by the
    [chaos] plan (default empty), armed together once through
    {!Hardware.Fault_plan}.  Node failures and recoveries are
    [Node_set] faults of the plan; a recovery honours
    [reset_on_recover].  [events] is the older link-only form of
    [Link_set]. *)

val cyclic_child_order :
  ring:int list -> self:int -> children:int list -> int list
(** The adversarial tour order of the Section 3 example: children that
    lie on [ring] are visited starting from the ring successor of
    [self], before any pendant nodes. *)

val deadlock_example_graph : unit -> Netgraph.Graph.t * (int * int) list
(** The six-node example: a triangle u,v,w (ids 0,1,2) with pendant
    nodes u1,v1,w1 (ids 3,4,5); returns the graph and the three
    pendant edges whose simultaneous failure triggers the
    non-convergence of the depth-first method. *)
