(** Shared harness for one-shot broadcast experiments.

    Section 3 compares several ways a node can broadcast its local
    topology: flooding (ARPANET), one direct message per destination,
    a single depth-first token, the layered-BFS walk of the footnote,
    and the branching-paths scheme.  Each algorithm in this library
    exposes a [run] function returning this common {!result}, measured
    on the simulated hardware. *)

type result = {
  time : float;
      (** completion time: the last NCU activation caused by the
          broadcast (the initial activation of the root included) *)
  syscalls : int;  (** total NCU activations, root's trigger included *)
  hops : int;  (** total link traversals (traditional measure) *)
  sends : int;  (** distinct packets injected *)
  drops : int;  (** packets lost to inactive links or bad headers *)
  max_header : int;  (** longest header used, in elements *)
  reached : bool array;
      (** [reached.(v)] iff [v]'s NCU received the payload (the root
          counts as reached) *)
}

val coverage : result -> int
(** Number of nodes reached. *)

val all_reached : result -> bool

type config = {
  cost : Hardware.Cost_model.t;
  failed : (int * int) list;
      (** links inactive for the whole execution (the root's [view]
          may or may not know about them) *)
  dmax : int option;
  view : Netgraph.Graph.t option;
      (** the root's believed topology; defaults to the true graph *)
  trace : Sim.Trace.t option;
      (** when given, the run records into this trace (so the caller
          can export it afterwards) instead of a fresh internal one.
          Completion time is computed from the trace, so a disabled
          recorder yields [time = 0]. *)
  registry : Hardware.Registry.t option;
      (** when given, the hardware [net.*] family and the algorithm's
          own counters are published here *)
  chaos : Hardware.Fault_plan.t option;
      (** timed faults armed before the root starts; unlike [failed]
          these fire mid-run with full notifications and in-flight
          loss (the chaos harness's injection hook) *)
  recover : Hardware.Recover.t option;
      (** when given, algorithms that support self-healing (branching
          paths, flooding) run their ack/retransmit layer under this
          policy (DESIGN.md §16); [None] — the default — is the exact
          historical execution, no acks, no watchdogs, byte-identical
          traces *)
}

val default_config : unit -> config
(** [new_model] cost (C=0, P=1), no failures, no [dmax], true view,
    no external trace or registry, no chaos plan, no recovery. *)

(** Shared root-side ack/retransmit machinery for recovering broadcast
    algorithms; see DESIGN.md §16.  Algorithm modules create one per
    run (from the config), feed root-side acks in, and arm the
    watchdog loop from the root's [on_start]. *)
module Recovery : sig
  type t

  val create : config -> n:int -> root:int -> t option
  (** [None] iff [config.recover] is [None]. *)

  val complete : t -> bool
  (** Every node has acknowledged the payload. *)

  val first_relay : t -> int -> attempt:int -> bool
  (** [first_relay st v ~attempt] is true, and records [attempt], iff
      node [v] has not yet relayed this attempt or a later one: relays
      forward once per attempt. *)

  val ack : t -> src:int -> unit
  (** Root side: record an ack from [src] (at most once per source);
      cancels the watchdog when the last ack lands. *)

  val start : t -> 'msg Hardware.Network.context -> resend:(attempt:int -> unit) -> unit
  (** Root side: arm the watchdog loop.  Each expiry with acks still
      missing and budget left calls [resend] with the next attempt
      number (1-based) and re-arms under capped exponential backoff;
      an exhausted budget counts one [recover.give_ups] and stops. *)

  val ack_route :
    Netgraph.Graph.t -> parent:int array -> int -> Hardware.Anr.route
  (** [ack_route graph ~parent v] is the header that climbs the BFS
      [parent] array (the root's is [-1]) from [v] to the root and
      delivers there, with no copies: the compiled form of the walk up
      the broadcast tree.  [v] must be a non-root member of the tree. *)

  val send_ack :
    label:string -> 'msg Hardware.Network.context -> parent:int array -> 'msg -> unit
  (** Send [m] from this node to the root over its {!ack_route}; a no-op
      at the root and at nodes outside the tree ([parent.(v) < 0]). *)
end

(** {1 Internal executor used by the algorithm modules} *)

type 'msg spec =
  reached:bool array -> view:Netgraph.Graph.t -> int -> 'msg Hardware.Network.handlers
(** Handler factory: [spec ~reached ~view v] returns node [v]'s
    handlers; they mark [reached.(v)] on delivery of the payload. *)

val execute :
  config:config ->
  graph:Netgraph.Graph.t ->
  root:int ->
  spec:'msg spec ->
  unit ->
  result
(** Build a network, apply configured failures at time 0, start the
    root, run to quiescence, and collect measurements.  [make_handlers]
    receives the [reached] array to mark deliveries and the root's
    [view]. *)
