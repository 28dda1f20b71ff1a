(** The experiment harness's job knob (CLI [--jobs]).

    [map] computes per-row data through a {!Parallel.Pool} of the
    configured width (inline when jobs = 1), returning results in
    submission order so the tables built from them are byte-identical
    at any job count.  Mapped work must draw randomness only from
    per-item pre-split rngs ({!Sim.Rng.split_n}). *)

val set_jobs : int -> unit
(** Clamped to at least 1.  Default 1 (fully sequential). *)

val map : ('a -> 'b) -> 'a list -> 'b list
