(** Descriptive statistics over float samples.

    Used by the experiment harness to summarise measured complexities
    (system calls, hops, completion times) across repeated trials. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;  (** sample standard deviation (n-1 denominator) *)
  min : float;
  max : float;
  median : float;
  p90 : float;  (** 90th percentile (nearest-rank) *)
}

val summarize : float list -> summary
(** [summarize xs] computes the summary of [xs].
    @raise Invalid_argument on the empty list. *)

val mean : float list -> float
val stddev : float list -> float

val percentile : float -> float list -> float
(** [percentile q xs] is the nearest-rank [q]-percentile of [xs] for
    [q] in [0,100]. *)

val log2 : float -> float
(** Base-2 logarithm, as used throughout the paper's bounds. *)
