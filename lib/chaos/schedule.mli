(** Seeded, replayable fault schedules.

    A schedule is the plain-data description of one chaos run: the
    [(seed, index)] pair it was derived from, the instance size, a
    per-hop delay-jitter bound, and a time-sorted list of faults.
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

type fault =
  | Link_down of { at : float; u : int; v : int }
  | Link_up of { at : float; u : int; v : int }
  | Node_crash of { at : float; node : int }
  | Node_recover of { at : float; node : int }
  | Drop_in_flight of { at : float; u : int; v : int }

type t = {
  seed : int;
  index : int;
  n : int;
  jitter : float;  (** hop-delay bound C; 0 means deterministic C=0 *)
  faults : fault list;  (** sorted by time, ties in generation order *)
}

val default_horizon : float
(** All generated faults land strictly before this time (48.); runners
    size their round budgets so plenty of quiescent time follows. *)

val generate : ?horizon:float -> n:int -> seed:int -> index:int -> unit -> t
(** Derive schedule [index] of seed [seed]: 1–5 fault groups drawn
    from {link flap, permanent link cut, node crash (± recovery),
    partition-and-heal, in-flight drop}, each over the same
    random-connected graph {!graph_of} returns.  About a fifth of
    schedules are {e static} — every fault a cut or crash at time 0 —
    the regime where component-scoped budget oracles are sound. *)

val generate_healing :
  ?horizon:float -> n:int -> seed:int -> index:int -> unit -> t
(** {!generate}, then append deterministic heal events: a
    [Node_recover] at [0.8 * horizon] for every node the schedule
    leaves dead, then a [Link_up] at [0.8 * horizon + 0.25] for every
    edge still missing once all nodes are back.  All destructive draws
    land below [0.75 * horizon], so the heal events strictly follow
    the damage; the result satisfies {!heals} by construction and is
    still a pure function of [(seed, index)]. *)

val heals : t -> bool
(** The schedule's final state (per {!final_state}) is fully healed:
    every node alive and every original edge up.  The liveness oracles
    only apply to healing schedules — a permanent partition legitimately
    forfeits termination — and the liveness shrinker keeps this
    predicate invariant so dropping a heal partner can't fake a
    failure. *)

val well_formed : t -> (unit, string) result
(** Every [Node_recover] must strictly follow a [Node_crash] of the
    same node; an orphan or premature recover is rejected with a
    message naming it.  {!of_json} applies this check (a bad repro file
    exits the CLI with code 2) and the shrinker filters its candidates
    through it. *)

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

val run_rng : t -> Sim.Rng.t
(** A fresh copy of the run-stream child (cost-model jitter, protocol
    tie-breaking): same caveat and guarantee as {!graph_of}. *)

val cost : t -> Hardware.Cost_model.t
(** [uniform_random] over {!run_rng} with [c = jitter], [p = 1]; the
    deterministic [new_model] when [jitter = 0]. *)

val compile : t -> Hardware.Fault_plan.t
(** The injectable form, in schedule order. *)

val quiescence : t -> float
(** Time of the last fault; 0 for a fault-free schedule. *)

val is_static : t -> bool
(** True when every fault is a [Link_down] or [Node_crash] at exactly
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
    peers, and a later [Link_up] wins.  A link fault naming a pair
    [graph] lacks, out-of-range endpoints included, is ignored.  The
    replay builds no graph: it writes one flag per undirected edge id
    and one per node. *)

(** {1 Repro-file codec} *)

val to_json : t -> string
(** Times are printed with 17 significant digits, so
    [to_json (of_json (to_json s))] is byte-identical to
    [to_json s] — the round-trip property the qcheck suite pins. *)

val of_json : string -> (t, string) result

val of_json_value : Sim.Json.t -> (t, string) result
(** The schedule object inside an already-parsed enclosing document
    (the repro-file reader uses this). *)

val equal : t -> t -> bool
