(** Declarative fault schedules for the simulated network.

    A plan is a list of timed faults — link state changes, node
    crash/recovery, in-flight packet loss — that {!arm} turns into
    engine events against a live {!Network.t}.  The run functions in
    [core] ([Broadcast.execute], [Election.run_chaos],
    [Topo_maintenance.run]) accept a plan and arm it before the
    simulation starts, generalising the ad-hoc [event]/[node_event]
    plumbing that topology maintenance grew first.

    Plans are plain data: the chaos layer generates them from a seeded
    RNG, serialises them into repro files and shrinks them, all
    without touching the network. *)

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
    [on_node] runs immediately after a [Node_set] is applied (same
    simulation instant), letting protocol harnesses react to
    crash/recovery — e.g. topology maintenance resetting a recovering
    node's database.

    Arming is {e idempotent per network}: a second [arm] of a
    structurally equal plan on the same network is a complete no-op —
    no fault is scheduled twice and no [?on_node] hook double-fires
    (guarded through {!Network.first_arming}).  Distinct plans still
    compose; only exact duplicates are absorbed.
    @raise Invalid_argument (when the event fires) if a fault names an
    edge absent from the graph. *)
