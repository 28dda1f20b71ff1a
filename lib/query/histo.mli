(** Fixed-bin streaming histograms: p50/p95/p99 in O(bins) memory.

    Latency analysis over a streamed trace must never materialise the
    sample set — a 10^6-event stream would otherwise cost 10^6 floats
    per distribution.  A histogram holds a fixed geometric grid
    (32 bins per decade over [1e-9, 1e9], plus an exact-zero bin and
    an overflow bin — 580 counters total), so memory is a constant
    independent of the observation count and merging two histograms is
    bin-wise addition.

    Quantiles are nearest-rank over the grid, answered with the
    {e mean of the winning bin}: at 32 bins/decade the relative error
    is bounded by the bin width (≈ 7.5%), and a distribution
    concentrated on one value — every hop of a deterministic [C, P]
    cost model — is answered {e exactly}, which is what the bench
    latency gates pin. *)

type t

val create : unit -> t

val observe : t -> float -> unit
(** Record one sample.  Negative samples raise [Invalid_argument]:
    the simulator's clock is monotone, so a negative latency is a
    corrupted stream, not data.  Zero is exact (its own bin). *)

val count : t -> int
val total : t -> float
val mean : t -> float
(** [nan] when empty. *)

val min_value : t -> float
(** Exact minimum observed sample ([nan] when empty). *)

val max_value : t -> float

val quantile : t -> float -> float
(** [quantile t q] for [q] in [[0, 1]]: nearest-rank estimate.
    [q = 0.] returns the exact minimum, [q = 1.] the exact maximum;
    [nan] when empty.  Out-of-range [q] raises [Invalid_argument]. *)
