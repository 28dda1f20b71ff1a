(** Deterministic discrete-event simulation engine.

    The engine owns a virtual clock and a priority queue of pending
    events.  Events scheduled for the same instant fire in scheduling
    order (FIFO), which makes every simulation a deterministic function
    of its inputs and of the seed of any {!Rng.t} involved.

    All of the paper's complexity measures are defined over discrete
    events (hops through switching hardware, system calls into the NCU),
    so a discrete-event simulation reproduces them exactly; virtual time
    models the C/P delay bounds of the cost model. *)

type t

type outcome =
  | Quiescent  (** the event queue drained completely *)
  | Time_limit  (** the [until] horizon was reached with events pending *)
  | Event_limit  (** the [max_events] budget was exhausted *)

val create : ?queue_capacity:int -> unit -> t
(** An engine with the clock at time [0.] and no pending events: the
    domain's retired spare when its hint equals [queue_capacity] (see
    {!retire}), a new one otherwise.  [queue_capacity] is a
    sizing hint for the event queue: a run whose peak number of pending
    events is roughly known allocates once instead of doubling up from
    16.  It sizes each part of the queue on its first use: the heap, the
    FIFO of events due at a fractional current instant, and each FIFO
    lane of the calendar that holds the events due at the next few
    whole-number instants.
    @raise Invalid_argument if [queue_capacity] is negative. *)

val reset : t -> unit
(** Return the engine to its initial state — clock [0.], no pending
    events, zero executed — while keeping the event queue's grown
    allocation.  The dropped events' closures are released, so nothing
    they capture stays reachable from the engine.  {!retire} resets
    this way before it keeps the engine for the next run. *)

val retire : t -> unit
(** [retire t] resets [t] and keeps it as this domain's spare engine:
    the next {!create} with the same [queue_capacity] hint returns it
    instead of allocating a new queue, so protocol runs that retire
    their engine pay the queue's arrays once per domain, not once per
    run.  There is one spare per domain.  Any {!create} empties the
    slot before it returns, so a run nested inside another, or one
    that raised before retiring, builds a fresh engine; a [create]
    with another hint drops the spare, so a spare of one size never
    outlives the next create of another.  A retired engine must not be
    used again. *)

val now : t -> float
(** Current virtual time. *)

val events_processed : t -> int
(** Total number of events executed so far. *)

val pending : t -> int
(** Number of events currently scheduled, zero-delay ones included. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** [schedule t ~delay f] runs [f] at time [now t +. delay].
    @raise Invalid_argument unless [delay >= 0.] (NaN included). *)

val schedule_at : t -> time:float -> (unit -> unit) -> unit
(** [schedule_at t ~time f] runs [f] at absolute [time].
    @raise Invalid_argument unless [time >= now t] (NaN included). *)

val run : ?until:float -> ?max_events:int -> t -> outcome
(** [run t] executes events in time order until the queue is empty, the
    optional [until] horizon is passed (the clock is then left at
    [until]), or [max_events] events have been executed.  [run] may be
    called repeatedly; each call continues from the current state. *)

val step : t -> bool
(** Execute the single next event.  Returns [false] if none is
    pending. *)
