(** The simulated network of SS + NCU nodes (Figure 1).

    Each node consists of a switching subsystem (SS) wired to the
    communication links and a single software processor (NCU).
    Packets injected by an NCU carry an {!Anr} header and flow through
    switching hardware only; they touch an NCU — costing a system call
    and up to [P] time — exactly where the header says so.  Each hop
    through a link and switch costs up to [C] time.

    Modelling commitments (see DESIGN.md §4):
    - each NCU is a single server: activations are processed serially
      in FIFO arrival order, each taking one software delay;
    - links are FIFO per direction; an inactive link delivers nothing,
      and packets in flight when a link fails are lost (each such loss
      is counted in {!Metrics.dropped_in_flight}, and in the
      [net.dropped_in_flight] registry counter when one is attached);
    - a node may inject any number of packets at the same instant at
      no extra processing cost (the PARIS multicast feature used by
      the Section 3 broadcast);
    - link state changes are reported to both endpoint NCUs after
      [detection_delay] (the data-link protocol of Section 2). *)

type 'msg t
type 'msg context

type 'msg handlers = {
  on_start : 'msg context -> unit;
      (** the algorithm is triggered at this node *)
  on_message : 'msg context -> via:int option -> 'msg -> unit;
      (** a packet reached this node's NCU; [via] is the neighbour it
          arrived from over the final hop ([None] for self-delivery) —
          information the switching hardware has for free and that
          e.g. ARPANET flooding uses to avoid echoing back *)
  on_link_change : 'msg context -> peer:int -> up:bool -> unit;
      (** the data-link layer reports an adjacent link transition *)
}

val default_handlers : 'msg handlers
(** All callbacks are no-ops. *)

val create :
  ?trace:Sim.Trace.t ->
  ?registry:Registry.t ->
  ?dmax:int ->
  ?dmax_policy:[ `Raise | `Drop ] ->
  ?detection_delay:float ->
  engine:Sim.Engine.t ->
  cost:Cost_model.t ->
  graph:Netgraph.Graph.t ->
  handlers:(int -> 'msg handlers) ->
  unit ->
  'msg t
(** Build a network over [graph].  [dmax] (default: unbounded) bounds
    the header length of any injected packet; [dmax_policy] decides
    whether an over-long header is a programming error ([`Raise], the
    default) or is refused by the hardware and counted as a drop
    ([`Drop] — used to study protocols under a live dmax restriction).
    [detection_delay] (default [0.]) is the data-link detection
    latency.

    When [registry] is given (and enabled), the runtime publishes
    [net.hops] / [net.syscalls] / [net.sends] / [net.drops] /
    [net.dropped_in_flight] counters and [net.hop_latency] /
    [net.header_len] histograms into it as the simulation runs,
    through handles pre-registered here — the disabled path stays
    allocation-free. *)

val retire : 'msg t -> unit
(** Hand the network's per-run state back for reuse, once its outcome
    has been read: {!Sim.Engine.retire} its engine, and keep its link,
    FIFO, NCU and liveness arrays and its {!Metrics.t} as this
    domain's spare.  The next {!create} over a graph with the same
    node and link counts refills and reuses them (a fresh [handlers]
    array is built each time); a [create] over any other size drops
    them before it allocates.  The slot is emptied by every [create],
    so a nested run, or one that raised before retiring, allocates
    afresh.  A retired network, its engine and its metrics must not be
    touched again: the next run owns them. *)

(** {1 Global view (experiment harness side)} *)

val graph : 'msg t -> Netgraph.Graph.t
val engine : 'msg t -> Sim.Engine.t
val metrics : 'msg t -> Metrics.t

val registry : 'msg t -> Registry.t option
(** The registry handed to {!create}, if any — protocol layers use it
    to publish their own instruments next to the [net.*] family. *)

val publish_distributions : 'msg t -> unit
(** Fold end-of-run distributions into the registry: the
    [net.syscalls_per_node] histogram, plus [sim.trace.dropped_ring] /
    [sim.trace.dropped_sink] counters whenever the trace lost events
    (the counter's presence is itself the warning).  Call after the
    simulation has quiesced; no-op without an enabled registry. *)

val last_activation_time : 'msg t -> float
(** Completion time of the last NCU activation anywhere in the
    network, [0.] if nothing ever ran — equal to the latest
    [Receive]/[Syscall] event time a trace of the run would contain,
    but available with tracing off. *)

val start : ?label:string -> 'msg t -> int -> unit
(** Trigger [on_start] at the node.  The activation is charged as a
    system call (it is the node's software getting involved). *)

val start_all : ?label:string -> 'msg t -> unit

val set_link : 'msg t -> int -> int -> up:bool -> unit
(** Activate or deactivate the (bidirectional) link at the current
    simulation time.  Packets in flight on a failing link are lost
    (and counted in {!Metrics.dropped_in_flight}).  No-op if the link is
    already in the requested state.
    @raise Invalid_argument if the edge does not exist. *)

val drop_in_flight : 'msg t -> int -> int -> unit
(** Destroy every packet currently in flight on the (bidirectional)
    link without changing its up/down state: a physical glitch too
    short for the data-link layer to detect, so no [on_link_change]
    notification is delivered.  Losses are counted as drops and in
    [net.dropped_in_flight].  Fault-injection primitive used by
    {!Fault_plan}.
    @raise Invalid_argument if the edge does not exist. *)

val preset_link : 'msg t -> int -> int -> up:bool -> unit
(** Set a link's initial state silently: no data-link notification is
    delivered and no packets can yet be in flight.  Intended before
    the simulation starts, to model links that failed in the past.
    @raise Invalid_argument if the edge does not exist. *)

val link_is_up : 'msg t -> int -> int -> bool
val iter_active_neighbors : 'msg t -> int -> (int -> int -> unit) -> unit
(** [iter_active_neighbors t u f] applies [f i peer] to each neighbour
    [peer] of [u] whose link is currently up, [i] being that link's
    local index at [u], in increasing peer order, without allocating:
    for hot paths such as per-hop relay decisions. *)

val fail_node : 'msg t -> int -> unit
(** An inactive node is modelled by a node all of whose links are
    inactive (Section 2): deactivate every incident link (with the
    usual notifications and in-flight loss) and remember the node as
    dead.  Idempotent. *)

val restore_node : 'msg t -> int -> unit
(** Bring the node back: reactivate its links except those whose far
    end is itself dead. *)

val node_is_alive : 'msg t -> int -> bool

(** {1 Node-side API (used from handlers)} *)

val self : 'msg context -> int
val network : 'msg context -> 'msg t
val now : 'msg context -> float

val send : ?label:string -> 'msg context -> route:Anr.route -> 'msg -> unit
(** Inject a packet at this node's SS.  Injection itself is free (the
    NCU is already running); every hop and NCU delivery en route is
    charged as usual.  Multiple [send]s from one activation model the
    free local multicast.
    @raise Invalid_argument if the route exceeds [dmax]. *)

val send_walk :
  ?label:string ->
  ?copy_at:(int -> bool) ->
  'msg context ->
  walk:int array ->
  'msg ->
  unit
(** [send] with the header {!Anr.of_walk} builds from [walk], which
    must begin at this node.
    @raise Invalid_argument if the walk does not start here. *)

val set_timer :
  ?label:string -> 'msg context -> delay:float -> (unit -> unit) -> unit
(** Schedule a software activation of this NCU after [delay]; charged
    as a system call when it fires (it occupies the processor like any
    activation). *)

val watchdog : 'msg context -> Sim.Timer.t
(** A fresh, unarmed watchdog bound to this network's engine (see
    {!Sim.Timer} and DESIGN.md §16). *)

val arm_watchdog :
  ?label:string ->
  'msg context ->
  Sim.Timer.t ->
  delay:float ->
  (unit -> unit) ->
  unit
(** Re-arm [timer] to expire [delay] from now.  An expiry activates
    this node's NCU (charged as one system call, like {!set_timer});
    a watchdog cancelled or re-armed before expiry never touches the
    NCU — no syscall, no trace event — so recovery-disabled runs and
    runs whose watchdogs never fire are byte-identical to a build
    without the recovery layer. *)
