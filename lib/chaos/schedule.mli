(** Seeded, replayable fault schedules.

    A schedule is the plain-data description of one chaos run: the
    [(seed, index)] pair it was derived from, the instance size, a
    per-hop delay-jitter bound, and a time-sorted
    {!Hardware.Fault_plan.t}, the network's own fault vocabulary.
    Everything about the run — the random-connected graph, the fault
    draws, the cost model's delay stream — is a function of
    [(seed, index)] through {!Sim.Rng.split_n} child derivation, so a
    schedule replays bit-for-bit from those two integers alone; the
    explicit fault list exists so that {e shrunk} variants (which no
    generator would produce) replay too.

    Delay jitter is realised as a [Cost_model.uniform_random] hop
    delay; the network's per-link FIFO clamp (DESIGN.md §7) re-orders
    nothing, so jitter preserves per-link FIFO order by construction.

    A schedule's end state ({!final_state}) is replayed on flat arrays
    over the graph's undirected edge ids and nodes, never by building a
    surviving graph; {!heals}, {!generate_healing} and the
    component-scoped oracle all read it. *)

type t = {
  seed : int;
  index : int;
  n : int;
  jitter : float;  (** hop-delay bound C; 0 means deterministic C=0 *)
  faults : Hardware.Fault_plan.t;
      (** sorted by time, ties in generation order *)
}

val default_horizon : float
(** All generated faults land strictly before this time (48.); runners
    size their round budgets so plenty of quiescent time follows. *)

val generate : n:int -> seed:int -> index:int -> unit -> t
(** Derive schedule [index] of seed [seed]: 1–5 fault groups drawn
    from {link flap, permanent link cut, node crash (± recovery),
    partition-and-heal, in-flight drop}, each over the same
    random-connected graph {!graph_of} returns.  About a fifth of
    schedules are {e static} — every fault a cut or crash at time 0 —
    the regime where component-scoped budget oracles are sound. *)

val generate_healing : n:int -> seed:int -> index:int -> unit -> t
(** {!generate}, then append deterministic heal events: a recovering
    [Node_set] at [0.8 * default_horizon] for every node the schedule
    leaves dead, then a [Link_set] up at [0.8 * default_horizon + 0.25]
    for every edge still missing once all nodes are back.  All
    destructive draws land below [0.75 * default_horizon], so the heal
    events strictly follow the damage; the result satisfies {!heals} by
    construction and is still a pure function of [(seed, index)]. *)

val heals : t -> bool
(** The schedule's final state (per {!final_state}) is fully healed:
    every node alive and every original edge up.  The liveness oracles
    only apply to healing schedules — a permanent partition legitimately
    forfeits termination — and the liveness shrinker keeps this
    predicate invariant so dropping a heal partner can't fake a
    failure. *)

val well_formed : t -> (unit, string) result
(** The schedule can be replayed: [1 <= n <= 2{^20}], [index >= 0]
    and a finite [jitter >= 0] (checked before the graph is built),
    then, fault by fault, a finite time
    [at >= 0], a node in [\[0, n)], and a link fault on an edge of
    {!graph_of}; finally every recovering [Node_set] strictly follows a
    crash of the same node.  A refusal names the fault (its position
    and JSON kind) and the field.  {!of_json} applies this check: a bad
    repro file exits the CLI with code 2. *)

val recoveries_ordered : Hardware.Fault_plan.t -> (unit, string) result
(** The last check of {!well_formed}, on its own.  Dropping faults or
    moving them earlier can break only this one, so the shrinker
    filters its candidates through it. *)

val artifact_of : t -> Compile.Topology.t
(** The schedule's compiled-topology artifact, from the process-wide
    {!Compile.Cache} keyed [(n, seed, index)]: replaying or shrinking
    the same schedule rebuilds the graph (and any derived labelling)
    exactly once. *)

val graph_of : t -> Netgraph.Graph.t
(** [Compile.Topology.graph (artifact_of t)] — the instance graph:
    [random_connected ~n ~extra_edges:(n/2)] built from the schedule's
    graph-stream child — identical whether called at generation,
    replay or shrink time. *)

val cost : t -> Hardware.Cost_model.t
(** [uniform_random] with [c = jitter], [p = 1] over a fresh copy of
    the schedule's run-stream child (same caveat and guarantee as
    {!graph_of}); the deterministic [new_model] when [jitter = 0]. *)

val compile : t -> Hardware.Fault_plan.t
(** [t.faults], kept for the benchmark harness; the runner reads the
    field directly. *)

val is_static : t -> bool
(** True when every fault is a link cut or a node crash at exactly
    time 0: the topology never changes mid-run, so oracles may scope
    budgets to the surviving component. *)

type final = {
  up : bool array;  (** by {!Netgraph.Graph.undirected_edge_id} *)
  dead : bool array;  (** by node *)
}

val final_state : graph:Netgraph.Graph.t -> t -> final
(** Replay the fault list, in time order, into link and liveness state
    with the exact [Network] semantics: a crash downs the node's
    incident links, a recovery re-ups them except toward still-dead
    peers, and a later [Link_set] wins.  A link fault naming a pair
    [graph] lacks, out-of-range endpoints included, is ignored.  The
    replay builds no graph: it writes one flag per undirected edge id
    and one per node. *)

(** {1 Repro-file codec} *)

val to_json : t -> string
(** Each fault is an object of kind [link_down] or [link_up] (a
    [Link_set]), [node_crash] or [node_recover] (a [Node_set]) or
    [drop_in_flight].  Times are printed with 17 significant digits, so
    [to_json (of_json (to_json s))] is byte-identical to
    [to_json s] — the round-trip property the qcheck suite pins. *)

val of_json : string -> (t, string) result

val of_json_value : Sim.Json.t -> (t, string) result
(** The schedule object inside an already-parsed enclosing document
    (the repro-file reader uses this). *)

val equal : t -> t -> bool
