(** Deterministic, splittable pseudo-random number generation.

    Every stochastic component of the simulator draws from an explicit
    {!t} value so that whole experiments are reproducible from a single
    integer seed.  [split] derives an independent child generator, which
    lets concurrent components (e.g. per-link delay samplers) consume
    randomness without perturbing each other's streams. *)

type t

val create : seed:int -> t
(** [create ~seed] returns a fresh generator determined by [seed]. *)

val split : t -> t * t
(** [split t] returns two fresh generators [(l, r)] whose streams are
    deterministic functions of [t]'s current state (and of nothing
    else), advancing [t].  Siblings are derived with distinct domain
    tags, so their streams are independent of each other and of the
    parent's later draws — the splittable-PRNG shape that makes
    parallel replicas reproducible: where a child is consumed cannot
    change what it draws. *)

val split_n : t -> int -> t array
(** [split_n t n] derives [n] child generators from [t]'s current
    state in one step, advancing [t] once.  Child [i] depends only on
    the parent state and the index [i] — not on [n] or on the other
    children — so replica [i] sees the same stream whether the sweep
    runs on 1 worker or 8 (the seed-sharding primitive of
    {!Parallel.Pool} sweeps).
    @raise Invalid_argument if [n < 0]. *)

val split_nth : t -> int -> t
(** [split_nth t i] is child [i] of [split_n t k] for every [k > i],
    without building its siblings: it advances [t] exactly as
    [split_n] does and returns an identical stream.
    @raise Invalid_argument if [i < 0]. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound).  [bound] must be
    positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] draws uniformly from the inclusive range
    [lo, hi].  Requires [lo <= hi]. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [0, bound). *)

val bool : t -> bool
(** [bool t] draws a fair coin. *)

val chance : t -> float -> bool
(** [chance t p] is true with probability [p] (clamped to [0,1]). *)

val pick : t -> 'a list -> 'a
(** [pick t xs] draws a uniform element of [xs].
    @raise Invalid_argument on the empty list. *)

val pick_array : t -> 'a array -> 'a
(** [pick_array t xs] draws a uniform element of array [xs].
    @raise Invalid_argument on the empty array. *)

val shuffle : t -> 'a list -> 'a list
(** [shuffle t xs] returns a uniform permutation of [xs]. *)

val shuffle_array_in_place : t -> 'a array -> unit
(** Fisher-Yates shuffle of the array, in place. *)
