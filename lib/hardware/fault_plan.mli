(** Declarative fault schedules for the simulated network, in the
    Section 2 vocabulary: a link goes up or down, a node fails (all its
    links go inactive) or recovers, and — for the chaos harness — a
    link silently loses the packets in flight on it.

    A plan is a list of timed faults that {!arm} turns into engine
    events against a live {!Network.t}.  The run functions in [core]
    ([Broadcast.execute], [Election.run_chaos], [Topo_maintenance.run])
    accept a plan and arm it once, on the network they create, before
    the simulation starts.

    Plans are plain data: [Chaos.Schedule] keeps one as its fault list,
    generates it from a seeded RNG, serialises it into repro files and
    shrinks it, all without touching the network. *)

type fault =
  | Link_set of { at : float; u : int; v : int; up : bool }
      (** force the (bidirectional) link up or down at time [at] *)
  | Node_set of { at : float; node : int; alive : bool }
      (** crash ([alive = false]) or revive the node at time [at] —
          the Section 2 model: a dead node is one all of whose links
          are down *)
  | Drop_in_flight of { at : float; u : int; v : int }
      (** destroy packets mid-link without a detectable state change *)

type t = fault list

val time_of : fault -> float

val by_time : t -> t
(** Stable sort by fault time: simultaneous faults keep their plan
    order. *)

val quiescence : t -> float
(** Time of the last fault (0 for the empty plan): after this instant
    the topology stops changing and the paper's convergence claims
    apply to whatever survives. *)

val arm :
  ?on_node:(node:int -> alive:bool -> unit) -> 'msg Network.t -> t -> unit
(** Schedule every fault on the network's engine at its absolute time.
    [on_node] runs immediately after a [Node_set] changes the node's
    state (same simulation instant), letting protocol harnesses react
    to crash/recovery — e.g. topology maintenance resetting a
    recovering node's database.  A [Node_set] that changes nothing (a
    recover of a live node, a crash of a dead one) fires no hook.

    Each call schedules the whole plan again: arm a plan once per
    network.
    @raise Invalid_argument (when the event fires) if a fault names an
    edge absent from the graph. *)
