(** The benchmark scenario table: the seeded workloads whose exact
    counters the bench golden holds at n = 64 .. 65536.

    One row per protocol family — flooding and branching-paths
    broadcasts, election, all-node topology maintenance and the
    self-healing broadcast — each in its size-appropriate form.  Above
    {!scale_threshold} election moves from the ring to the random
    benchmark graph (a ring election is Theta(n^2) hops by
    construction) and maintenance to 4-origin rounds over a preseeded
    database; the form is part of the row name.  Graphs, labellings
    and route tables come from {!Compile.Cache}, so every caller that
    runs a row at the same [n] shares one artifact.

    [test/golden/bench_counters.jsonl] holds one {!measure} line per
    (row, n): the test suite recomputes n <= 4096, [bench/main.exe]
    checks whatever sizes it runs. *)

type row = {
  key : string;  (** [bench --scenarios] key: flood, bpaths, ... *)
  name : n:int -> string;  (** e.g. ["e6/election-rand-n65536"] *)
  run :
    ?registry:Hardware.Registry.t ->
    ?trace:Sim.Trace.t ->
    n:int ->
    unit ->
    Hardware.Monitor.report list;
      (** One execution, publishing into [registry] and recording
          into [trace] when given.  Returns the paper's bounds this
          run must meet (Theorem 2 for the branching-paths broadcast,
          Theorem 5 and the 2n+2 header ceiling for election; none
          for the other rows). *)
}

val rows : row list
(** flood, bpaths, election, maintenance, recover — golden order. *)

val find : string -> row option

val scale_threshold : int
(** 8192: sizes above it run the scale forms. *)

(** {1 The counter golden} *)

val measure : row -> n:int -> (string * Sim.Json.t) list
(** Run [row] once with a registry and a streaming
    {!Query.Latency} consumer attached and return its golden line:
    [name], [n], the [net.*]/[recover.*] counters (syscalls, hops,
    drops, dropped_in_flight, retransmits, restarts) and the C/P
    latency summary (c, p, messages, ... e2e_p99).  The consumer is
    {!gc_paced}. *)

val gc_paced : n:int -> ('a -> 'b) -> 'a -> 'b
(** [gc_paced ~n f] is [f] with a full major GC every 2^17 calls
    (stretched to the next power of two >= n at the scale sizes, where
    a full major walks a multi-GiB heap).  OCaml 5.1 never returns
    pool memory, and [bench --mem-budget] reads the heap high-water
    mark: a 10^6-event stream's churn must reuse swept slots instead
    of growing the heap. *)

val golden_path : string
(** ["test/golden/bench_counters.jsonl"], relative to the repo root. *)

val read_golden : string -> ((string * Sim.Json.t) list list, string) result
(** Every line of a golden file, each a JSON object with a ["name"]. *)

val golden_line :
  (string * Sim.Json.t) list list -> name:string ->
  (string * Sim.Json.t) list option

val first_difference :
  golden:(string * Sim.Json.t) list -> (string * Sim.Json.t) list ->
  string option
(** The first field, in golden order, whose value differs (compared
    as {!Sim.Json.render} prints it, so exact up to ["%.12g"]), is
    missing, or is absent from the golden; [None] when the lines
    agree. *)
