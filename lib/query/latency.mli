(** Streaming latency distributions priced in the paper's C/P terms.

    Walks a trace's message edges — the same [Send → Hop → … →
    Receive] chains {!Analysis.Event_dag} materialises as [Message]
    edges — incrementally, one event at a time, so a streamed JSONL
    export is priced without ever holding the event list: per-hop
    latency is the elapsed time between successive events of one
    packet, per-delivery latency the elapsed time of the final
    NCU hand-off, end-to-end latency the span from injection to each
    delivery.  Each sample is split against the cost model's bounds
    into {e work} (at most [C] per hop, [P] per delivery — Section 2's
    hardware/software split) and {e wait} (queueing ahead of the
    bound), so a fat p99 is attributable to contention rather than to
    the model's own delays.

    Memory is O(histogram bins + in-flight packets + distinct links):
    the three global distributions are fixed-bin histograms, per-packet
    state is two floats, and per-link state is a four-word summary.
    All per-packet and per-link state lives in a few large parallel
    arrays rather than per-key heap blocks, so a traced run's
    allocation churn never interleaves with it — on OCaml 5.1 (no
    heap compactor) long-lived small blocks scattered through churn
    pin whole 16 KiB pools and multiply the resident footprint. *)

type t

val create : ?cost:Hardware.Cost_model.t -> unit -> t
(** [cost] defaults to {!Hardware.Cost_model.new_model} ([C=0, P=1]),
    the model Sections 3-4 state their bounds in. *)

val observe : t -> Sim.Trace.event -> unit
(** Feed one event, in chronological order.  Non-message events
    (syscalls, drops, link changes, custom marks) are ignored. *)

val c : t -> float
val p : t -> float

val hop : t -> Histo.t
(** Per-hop latency: elapsed simulated time between successive trace
    events of one packet ending in a [Hop]. *)

val delivery : t -> Histo.t
(** Final hand-off latency: last packet event to its [Receive]. *)

val e2e : t -> Histo.t
(** End-to-end: [Send] to each [Receive] of that packet (a copy route
    delivers one packet several times; each delivery is a sample). *)

type link_stat
(** Per-link summary: count / mean / min / max, four words per link —
    a flooding run touches 10^5 directed links, so a full histogram
    per link would dominate the aggregator's footprint.  Percentiles
    come from the global {!hop} distribution. *)

val links : t -> ((int * int) * link_stat) list
(** Per-directed-link hop summaries, busiest first (count descending,
    then link ascending — deterministic). *)

val link_mean : link_stat -> float

val messages : t -> int
(** Packets injected ([Send] events seen). *)

val deliveries : t -> int

val unknown : t -> int
(** Hops or receives whose packet had no tracked [Send] — a truncated
    stream's orphans, counted rather than guessed at. *)

val c_work : t -> float
(** Total time attributed to the hardware bound [C] across all hops. *)

val p_work : t -> float
(** Total time attributed to the software bound [P] across all
    deliveries. *)

val wait : t -> float
(** Total queueing time above the [C]/[P] bounds. *)

val dist_fields : Histo.t -> (string * float) list
(** [count, mean, min, max, p50, p95, p99] of one distribution as
    JSON-ready key/value pairs (count included as a float). *)

val to_json : t -> string
(** Deterministic JSON object ([%.12g] floats).  At most 64 per-link
    entries are rendered, busiest first, with an explicit
    ["links_elided"] count for the rest. *)

val pp : Format.formatter -> t -> unit
