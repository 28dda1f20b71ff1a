(** The process-wide compiled-topology cache (DESIGN.md §12).

    Keyed by {!Topology.key} — [(builder family, n, seed, index,
    extra)] — so every harness that describes the same scenario gets
    the {e same} artifact back (physical sharing; the test suite
    checks [==]).  Thread-safe: sweep replicas on pool workers may
    look up concurrently.  Graph builders must be pure functions of
    their key; a first-touch race can at worst build twice and keep
    one winner.

    The cache never invalidates anything — keys are immutable
    descriptions, not live network state, and an artifact's compiled
    routes stay valid under a {!Hardware.Fault_plan} (see
    {!Topology.routes}). *)

type stats = { hits : int; misses : int; evictions : int }

val find_or_build : Topology.key -> (unit -> Netgraph.Graph.t) -> Topology.t
(** [find_or_build key build] returns the cached artifact for [key],
    calling [build] at most once per miss to construct the graph.
    Callers introducing a new family must pick a fresh [family] tag
    and derive the graph from the key alone (e.g. reconstruct rng
    children from [(seed, index)]), never from live rng state — the
    cache's hit/miss behaviour must not be observable. *)

val stats : unit -> stats

val resident : unit -> int
(** Artifacts currently held by the table. *)

val pp_stats : Format.formatter -> unit -> unit
(** One-line human summary ("compile cache: H hits, M misses, ...")
    for the bench / trace text output. *)

val clear : unit -> unit
(** Drop every artifact and zero the stats (tests; long soaks that
    want their memory back). *)

(** {1 Canned families} *)

val random_connected : seed:int -> n:int -> extra_edges:int -> Topology.t
(** [Builders.random_connected] on a fresh [Rng.create ~seed]. *)

val sweep_replica : seed:int -> index:int -> n:int -> Topology.t
(** Replica [index] of a {!Parallel.Sweep} with master [seed]: the
    graph built from the first half of [split (split_n parent).(index)]
    with [extra_edges = n/2] — exactly the stream [Sweep.run] derives,
    so the artifact is a pure function of [(seed, index, n)]. *)

val ring : n:int -> Topology.t
val path : n:int -> Topology.t
val star : n:int -> Topology.t
val complete : n:int -> Topology.t
val grid : rows:int -> cols:int -> Topology.t
val torus : rows:int -> cols:int -> Topology.t
val hypercube : dim:int -> Topology.t
val complete_binary_tree : depth:int -> Topology.t
