(** Structured execution traces.

    The hardware runtime emits one record per simulated event (hop,
    system call, link transition, ...).  Traces serve three purposes:
    debugging, the causal-message analysis of the paper's appendix
    (Theorem 6), and golden assertions in tests. *)

type event =
  | Hop of { src : int; dst : int; time : float; msg_id : int }
      (** packet [msg_id] crossed the link from node [src] to node
          [dst]; a negative [msg_id] means the recorder did not know
          the packet (hand-written traces, external tooling) *)
  | Syscall of { node : int; time : float; label : string }
      (** the NCU of [node] was activated *)
  | Send of { node : int; time : float; msg_id : int; label : string }
      (** the NCU of [node] injected a packet *)
  | Receive of { node : int; time : float; msg_id : int; label : string }
      (** the NCU of [node] received packet [msg_id] *)
  | Drop of { node : int; time : float; reason : string }
      (** a packet died at [node] (inactive link, bad header, ...) *)
  | Link_change of { u : int; v : int; up : bool; time : float }
  | Custom of { time : float; label : string }

type t

val create : ?capacity:int -> unit -> t
(** [create ?capacity ()] returns a trace recorder.  When [capacity] is
    given, only the most recent [capacity] events are retained. *)

val disabled : unit -> t
(** A recorder that discards every event (zero-cost tracing off). *)

val streaming : ?keep:bool -> consumer:(event -> bool) -> unit -> t
(** [streaming ~consumer ()] returns a recorder that hands every event
    to [consumer] as it is recorded.  A [false] return from [consumer]
    means the downstream sink refused the event; such refusals are
    counted in {!dropped_sink}.  By default ([keep = false]) nothing is
    retained in memory — {!events} is empty and the run streams in
    O(sink buffer) space; pass [~keep:true] to also keep every event,
    unbounded, for monitors that replay them. *)

val enabled : t -> bool
(** Whether {!record} retains events.  Hot paths test this before
    building an event, so tracing-off costs no allocation at all. *)

val record : t -> event -> unit
val events : t -> event list
(** Events in chronological (recording) order. *)

val length : t -> int

val recorded : t -> int
(** Total events offered to {!record} since creation, including
    events a bounded recorder has since evicted. *)

val dropped_ring : t -> int
(** Events lost to the ring-buffer capacity bound (evicted oldest
    first).  Always zero for a [keep = false] streaming trace, which
    retains nothing by contract. *)

val dropped_sink : t -> int
(** Events a streaming consumer refused (sink backpressure — a bounded
    file sink past its byte budget). *)

val dropped : t -> int
(** [dropped_ring t + dropped_sink t]: total events lost.  A profile or
    export computed over a trace with [dropped > 0] is missing events
    and must say so. *)

val time_of : event -> float
val pp_event : Format.formatter -> event -> unit
