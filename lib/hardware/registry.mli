(** A process-wide style metrics registry for the simulated network.

    {!Metrics} accounts the paper's two complexity measures exactly;
    the registry is the operational companion: named counters, gauges
    and fixed-bucket histograms that the hardware runtime and the
    protocol layer publish into, and that the CLI / bench harness can
    dump as a summary table or JSON.

    Naming convention (see DESIGN.md, "Observability"): instrument
    names are dot-separated [<layer>.<quantity>] — e.g.
    [net.hops], [net.hop_latency], [bpaths.paths_sent],
    [election.tours].  Registering an existing name returns the
    existing instrument, so repeated runs against one registry
    accumulate.

    The disabled registry mirrors {!Sim.Trace.disabled}: instruments
    can be registered (they become no-op handles) and [enabled] is
    [false], so hot paths can skip observation entirely.  The
    fast-path contract of DESIGN.md §7 is preserved by {e guarding},
    not by cheap instruments: callers on the packet path must hold
    pre-registered handles and test {!enabled} (or a cached option)
    before observing, never look instruments up by name per event. *)

type t
type counter
type gauge
type histogram

val create : unit -> t
val disabled : unit -> t
(** Registrations succeed but return inert instruments; [enabled] is
    [false]. *)

val enabled : t -> bool

(** {1 Registration} — not for hot paths; do it once at setup time. *)

val counter : t -> ?help:string -> string -> counter
val gauge : t -> ?help:string -> string -> gauge

val histogram : t -> ?help:string -> buckets:float array -> string -> histogram
(** [buckets] are the upper bounds of the histogram's bins, strictly
    increasing; an implicit [+inf] bucket catches the rest.
    @raise Invalid_argument if [buckets] is empty or not increasing,
    or if the name is already registered as a different instrument
    kind (same for {!counter} and {!gauge}). *)

(** {1 Observation} — cheap, allocation-free. *)

val incr : counter -> unit
val add : counter -> int -> unit
val set : gauge -> float -> unit
val observe : histogram -> float -> unit

(** {1 Reading} *)

val counter_value : counter -> int

val histogram_buckets : histogram -> (float * int) list
(** [(upper_bound, count)] per bin, the final bin as [(infinity, _)].
    Counts are per-bin, not cumulative. *)

val find_counter : t -> string -> counter option

val merge : into:t -> t -> unit
(** [merge ~into src] folds [src]'s instruments into [into],
    registering any missing names: counters are {e summed}, histogram
    bins (and count/sum) are {e added} pairwise, and gauges combine by
    [Float.max] — the peak across replicas, the only order-independent
    choice without timestamps.  The combine is commutative and
    associative for counters and histograms, so a parallel sweep can
    merge per-worker registries in submission order and obtain output
    independent of worker placement.  Merging into a disabled registry
    is a no-op; a disabled source contributes zeros.
    @raise Invalid_argument if a name is registered as a different
    instrument kind in the two registries, or if a histogram's bucket
    bounds differ. *)

val pp_summary : Format.formatter -> t -> unit
(** A plain-text table: counters, gauges, then histograms with count /
    sum / mean and the non-empty buckets, all sorted by name. *)

val to_json : t -> string
(** The whole registry as one JSON object keyed by instrument name,
    deterministically ordered (sorted by name). *)
