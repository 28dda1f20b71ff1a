(** The experiment harness: table generators for every quantitative
    claim in the paper (E1-E9), the ablations of DESIGN.md (A1-A4),
    ASCII renderings of Figures 1-5, and per-node execution
    timelines.  See DESIGN.md section 3 for the claim-to-experiment
    map and EXPERIMENTS.md for the recorded results. *)

val all : (string * string * (unit -> unit)) list
(** Registry: (id, description, runner) for e1..e9 and a1..a4. *)

val find : string -> (string * string * (unit -> unit)) option

val run_all : unit -> unit
(** Run every registered experiment, printing the tables to stdout. *)

module Scaling = Scaling
(** The benchmark scenario table and its counter golden. *)

val figures : unit -> unit
(** Render the paper's Figures 1-5 as ASCII (live objects where a
    computation is involved). *)

val timeline : unit -> unit
(** Per-node ASCII timelines of a branching-paths vs a flooding
    broadcast on a grid — the cost model made visible. *)

val set_jobs : int -> unit
(** Width of the {!Parallel.Pool} the sweep-style experiments (E1, E6,
    E7, A3) fan their per-row computations through; default 1
    (sequential).  Tables are byte-identical at any width — rows are
    computed in parallel but assembled in submission order, and all
    randomness is pre-split per row. *)

val jobs : unit -> int
