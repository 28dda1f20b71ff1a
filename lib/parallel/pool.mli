(** A fixed-size pool of resident OCaml 5 domains for independent
    simulation replicas.

    The experiment harness establishes every quantitative claim by
    sweeping {e independent} replicas over topologies, sizes and seeds;
    this pool runs those replicas concurrently without changing any of
    their outputs.  The contract (DESIGN.md §10): parallelism may only
    change the wall clock.  Three rules make that hold:

    - every replica draws from a pre-split {!Sim.Rng} child
      ({!Sim.Rng.split_n}), whose stream depends only on the parent
      seed and the replica index — never on worker placement;
    - every replica owns its instruments (a private
      {!Hardware.Registry}, a private {!Sim.Trace}); cross-replica
      aggregation happens after the join, in submission order
      ({!Hardware.Registry.merge});
    - {!map} returns results in submission order, and the
      lowest-index exception wins deterministically.

    Work distribution is a single self-scheduling queue (one atomic
    cursor over the task array) drained by [jobs] workers — the calling
    domain is worker 0, so [jobs = 1] is a plain inline loop with no
    domain and no synchronisation.  Pools are not re-entrant: a task
    must not submit to the pool it runs on. *)

type t

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the core count the runtime
    believes this machine can keep busy. *)

val create : jobs:int -> t
(** [create ~jobs] spawns [jobs - 1] resident helper domains (clamped
    to at least 1 job).  The helpers park on a condition variable
    between submissions. *)

val jobs : t -> int

val map : ?chunk:int -> t -> ('a -> 'b) -> 'a array -> 'b array
(** [map t f xs] applies [f] to every element, distributing items over
    the pool's workers, and returns the results {e in submission
    order}.  If one or more applications raise, the exception of the
    lowest index is re-raised after all workers drain — which worker
    hit it cannot change the outcome.

    Workers claim [chunk] consecutive indices per cursor fetch
    (chunked self-scheduling); the default batches roughly four
    claims per worker, so tiny tasks amortise the contended
    fetch-and-add while long sweeps still balance.  The chunk size
    can shift which worker computes which item but never the results:
    every item lands in its submission slot either way.
    @raise Invalid_argument on a closed or busy pool, or [chunk < 1]. *)

val map_list : ?chunk:int -> t -> ('a -> 'b) -> 'a list -> 'b list
(** {!map} over lists. *)

(** {1 Telemetry}

    Cheap always-on per-worker counters and wall-clock spans (the
    observability layer's answer to "is the pool actually busy?").
    Telemetry never feeds back into scheduling or results; it is
    wall-clock and scheduling dependent, so it must {e never} be
    folded into deterministic outputs such as [Sweep.metrics_json] —
    publish it into a process-local registry instead. *)

type worker_stats = {
  tasks : int;  (** {!map} items this worker executed *)
  chunks : int;  (** cursor claims that yielded work *)
  busy_s : float;  (** seconds inside submitted tasks *)
  idle_s : float;  (** seconds of generations spent waiting *)
}

val stats : t -> worker_stats array
(** One snapshot per worker (index = worker id, 0 is the caller).
    Call between submissions — the drain barrier orders the reads. *)

val generations : t -> int
(** {!run}/{!map} submissions completed. *)

val publish : t -> Hardware.Registry.t -> unit
(** Fold the totals into a registry: [pool.tasks], [pool.chunks],
    [pool.generations] counters, a [pool.jobs] gauge, and
    [pool.worker_busy_s] / [pool.worker_idle_s] histograms (one
    observation per worker).  Merge-safe in any order.  No-op on a
    disabled registry. *)

val shutdown : t -> unit
(** Wake and join the helper domains.  Idempotent.  Submitting to a
    shut-down pool raises.  Must not be called concurrently with
    {!run}/{!map}. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] with a fresh pool and guarantees
    {!shutdown}, whatever [f] does. *)
