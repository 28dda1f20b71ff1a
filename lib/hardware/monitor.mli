(** Paper-bound runtime monitors.

    The paper's results are quantitative — exactly [n] system calls
    and at most [1 + log₂ n] time per branching-paths broadcast
    (Theorem 2), at most [6n] system calls per election (Theorem 5),
    [dmax]-bounded headers (§2), FIFO links (§2).  These monitors turn
    those bounds into machine-checked assertions over a finished
    simulation's metrics and trace, so every CLI run, bench run and CI
    job re-verifies the theorems instead of trusting hand-written test
    constants.

    Each checker produces a {!report}; {!enforce} then applies the
    chosen {!mode}: [Warn] prints violations and carries on, [Fail]
    raises {!Violation} — the mode CI runs in. *)

type mode = Off | Warn | Fail

type report = {
  monitor : string;  (** e.g. ["theorem2"] *)
  ok : bool;
  detail : string;  (** human-readable bound vs observed *)
}

exception Violation of report list
(** Raised by {!enforce} in [Fail] mode; carries every failed report. *)

(** {1 The paper's bounds as checkers} *)

val theorem2_broadcast :
  ?p:float -> n:int -> syscalls:int -> time:float -> unit -> report
(** Theorem 2 for one branching-paths broadcast on an [n]-node
    network: exactly [n] system calls (one NCU activation per node,
    counting the root's trigger) and completion within
    [(2 + log₂ n) · P] — the theorem's [1 + log₂ n] broadcast units
    plus the one triggering activation the harness charges.  [p]
    (default [1.]) is the cost model's software delay bound. *)

val election_budget : n:int -> election_syscalls:int -> report
(** Theorem 5: at most [6n] election system calls. *)

val dmax_ceiling : dmax:int -> max_header:int -> report
(** §2: no injected header may exceed [dmax] elements. *)

(** §2 link model: hop completions on each directed link appear in
    non-decreasing time order — the switching hardware never reorders
    a link's packets.  The check consumes one event at a time, so it
    runs online as a {!Sim.Trace.streaming} consumer: the chaos
    runner, [futurenet trace] and [bench --monitors] all check it so,
    with or without a ring. *)
module Fifo : sig
  type t

  val create : ?links:int -> unit -> t
  (** No link seen yet.  [links] (default 32) is how many directed
      links the table holds without growing: a checker sized for its
      graph's {!Netgraph.Graph.directed_edge_count} never rehashes. *)

  val observe : t -> Sim.Trace.event -> unit
  (** Advance the hop's directed-link clock; any other event is
      ignored.  Checking stops at the first violation, which
      {!report} names.
      @raise Invalid_argument on a hop endpoint outside [0, 2^30). *)

  val report : t -> report
  (** Monitor ["fifo-per-link"]: the first reordered hop, or the
      number of directed links seen. *)
end

val one_way_delivery : n:int -> syscalls:int -> report
(** The one-way property underlying Theorem 1: a one-way broadcast
    activates no NCU twice, so system calls never exceed [n] even
    under failures (coverage may be partial). *)

(** {1 Enforcement} *)

val enforce : ?out:Format.formatter -> mode -> report list -> report list
(** Returns the failed reports.  [Warn] additionally prints each
    failure to [out] (default [Format.err_formatter]); [Fail] raises
    {!Violation} if any failed; [Off] does nothing but still returns
    them. *)

val pp_report : Format.formatter -> report -> unit
