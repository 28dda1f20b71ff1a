(** Recovery policy shared by the self-healing protocol layers
    (DESIGN.md §16): how long a node waits before suspecting loss, how
    retries back off, and how many it may spend before giving up.

    Everything here is deterministic: watchdog expiries are ordinary
    engine events, and the backoff jitter for node [v] is drawn from
    child [v] of one {!Sim.Rng.split_n} family keyed by [seed] — a pure
    function of [(seed, v, attempt)], independent of scheduling or
    [--jobs]. *)

type t = {
  backoff : Sim.Timer.backoff;
      (** retry [k] waits [backoff_delay ~attempt:k]; the base delay is
          the initial watchdog timeout *)
  max_retries : int;  (** retries (timeouts acted on) per node before giving up *)
  seed : int;  (** keys the per-node jitter streams *)
}

val default : n:int -> t
(** A policy sized for an [n]-node network under the paper's cost
    model: the base timeout dominates a full protocol round trip
    including serial ack absorption at one NCU (Θ(n·P)), doubling per
    retry up to 16×, 25% jitter, 8 retries. *)

val streams : t -> n:int -> Sim.Rng.t array
(** The per-node jitter streams: child [v] drives node [v]'s backoff
    draws and nothing else. *)

val stream : t -> int -> Sim.Rng.t
(** [stream t v] is [(streams t ~n).(v)] for any [n > v], built without
    its siblings. *)

val delay : t -> rng:Sim.Rng.t -> attempt:int -> float
(** Backoff delay before retry [attempt] (0-based), jittered from the
    node's own stream. *)

(** {1 Tallies}

    What a recovery layer did in one run, counted as plain ints.  The
    layer returns them in its result (a chaos verdict reads them
    there) and adds them to the [recover.*] counters when the run ends:
    each fact is counted once, and the registry is fed from the
    count. *)

type tally = {
  mutable timeouts : int;  (** watchdog expiries acted upon *)
  mutable retransmits : int;  (** broadcast re-sends *)
  mutable restarts : int;  (** election epoch restarts *)
  mutable resumes : int;  (** maintenance rounds resumed on recover *)
  mutable acks : int;  (** delivery acknowledgements received *)
  mutable give_ups : int;  (** retry budgets exhausted *)
}

val tally : unit -> tally
(** All zero. *)

(** {1 recover.* instruments}

    Pre-registered handles: the counters receive a run's {!tally} when
    it ends, the backoff histogram each chosen delay. *)

type obs = {
  r_timeouts : Registry.counter;
  r_retransmits : Registry.counter;
  r_restarts : Registry.counter;
  r_resumes : Registry.counter;
  r_acks : Registry.counter;
  r_give_ups : Registry.counter;
  r_backoff : Registry.histogram;  (** chosen backoff delays *)
}

val obs : Registry.t option -> obs option
(** Register (or retrieve) the [recover.*] instruments; [None] when the
    registry is absent or disabled. *)

val publish : obs option -> tally -> unit
(** Add the tally to the [recover.*] counters; a no-op on [None]. *)
