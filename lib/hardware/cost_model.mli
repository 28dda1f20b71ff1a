(** The paper's delay and cost parameters.

    A message suffers a {e hardware} delay at every hop — transmission
    plus switching, bounded by [C] — and a {e software} delay bounded
    by [P] whenever it is delivered to an NCU (Section 2).  Sections 3
    and 4 work in the limiting model [C = 0, P = 1]; Section 5 keeps
    both as free parameters.

    Algorithms must be correct for {e any} finite delays, so a model
    carries samplers in addition to the bounds: the deterministic
    sampler realises the worst case exactly (the paper notes that
    increasing a delay never speeds up an execution), and the random
    sampler exercises asynchrony in tests. *)

type t = private {
  c : float;  (** upper bound on per-hop hardware delay *)
  p : float;  (** upper bound on per-system-call software delay *)
  hop_delay : unit -> float;
  sys_delay : unit -> float;
}

val deterministic : c:float -> p:float -> t
(** Every hop takes exactly [c]; every system call takes exactly [p].
    Requires [c >= 0.] and [p >= 0.]. *)

val uniform_random : Sim.Rng.t -> c:float -> p:float -> t
(** Delays drawn uniformly from [(0, c]] and [(0, p]] (a zero bound
    yields zero delays). *)

val new_model : unit -> t
(** The limiting model of Sections 3-4: [C = 0, P = 1],
    deterministic. *)

val traditional : unit -> t
(** The classical message-passing model as a point of the parameter
    space: [C = 1, P = 0]. *)
