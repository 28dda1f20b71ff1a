(** Cost accounting in the paper's two measures.

    - {e communication complexity}: total hops traversed through
      switching hardware (the traditional measure, capturing hardware
      cost);
    - {e system-call complexity}: total number of NCU activations
      (the new measure, capturing software cost, Section 2). *)

type t

val create : n:int -> t
(** Fresh counters for an [n]-node network. *)

val reset : t -> unit
(** Zero every counter, as {!create} left them, keeping the per-node
    array: a network reusing a retired run's counters starts from
    this. *)

val n : t -> int
val hops : t -> int
val syscalls : t -> int
val sends : t -> int
(** Number of packet injections by NCUs (each possibly a multi-element
    source route).  Free in the cost model; reported for insight. *)

val drops : t -> int
(** Packets that died (inactive link, malformed header). *)

val dropped_in_flight : t -> int
(** The part of {!drops} lost mid-link: packets committed to a link
    that failed (or glitched) before they arrived.  A chaos verdict
    reads it from here. *)

val syscalls_at : t -> int -> int
(** Per-node NCU activations. *)

val syscalls_labelled : t -> string -> int
(** NCU activations bearing the given label. *)

val max_header : t -> int
(** Largest header length (in elements) injected so far — the quantity
    that [dmax] bounds. *)

val record_hop : t -> unit
val record_syscall : t -> node:int -> label:string -> unit
val record_send : t -> header_len:int -> unit
val record_drop : t -> unit

val record_dropped_in_flight : t -> unit
(** Count one in-flight loss; the drop itself is {!record_drop}'s. *)
