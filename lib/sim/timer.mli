(** Deterministic re-armable watchdogs over {!Engine}, plus the capped
    exponential backoff policy the recovery layer (DESIGN.md §16) uses
    to space retries.

    A watchdog is armed with {!arm}: the callback is scheduled as an
    ordinary engine event, so firing order is governed by the same
    heap-and-FIFO discipline as every other event and traces stay
    byte-identical at any [--jobs].  Re-arming or {!cancel}-ing bumps a
    generation counter; a previously scheduled fire whose generation no
    longer matches is a pure engine no-op — it advances the clock past
    its timestamp but runs no user code, costs no syscall and leaves no
    trace event.  There is no O(log n) heap deletion: superseded events
    simply drain. *)

type t

val create : Engine.t -> t
(** A fresh, unarmed watchdog bound to [engine]. *)

val arm : t -> delay:float -> (unit -> unit) -> unit
(** [arm w ~delay f] schedules [f] to run [delay] from now, superseding
    any previously armed callback on [w] (the old event becomes a
    no-op).  [f] runs at most once per arming; it may re-arm [w]. *)

val cancel : t -> unit
(** Disarm [w]: any pending fire becomes a no-op.  Idempotent. *)

(** Capped exponential backoff: attempt [k] waits
    [min (base *. factor^k) cap], stretched by a multiplicative jitter
    drawn from the caller's own {!Rng} stream so that two nodes backing
    off from the same instant do not retry in lockstep.  With
    [jitter = 0.] the delay is a pure function of [k]. *)
type backoff = {
  base : float;  (** delay before the first retry *)
  factor : float;  (** multiplier per subsequent attempt, >= 1 *)
  cap : float;  (** upper bound on the un-jittered delay *)
  jitter : float;  (** max extra fraction in [0, 1): delay *= 1 + U[0,jitter) *)
}

val backoff : ?base:float -> ?factor:float -> ?cap:float -> ?jitter:float ->
  unit -> backoff
(** Defaults: [base = 1.0], [factor = 2.0], [cap = 64.0], [jitter = 0.]. *)

val backoff_delay : backoff -> rng:Rng.t option -> attempt:int -> float
(** Delay before retry [attempt] (0-based).  Consumes one float from
    [rng] iff [jitter > 0.] — pass each node its own split stream so
    the draw sequence is placement-independent. *)
