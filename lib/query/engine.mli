(** The query engine: filter, group, aggregate — one streaming pass.

    Backs [futurenet query FILE].  A query folds every line of a
    schema-v2 JSONL stream (or an in-memory event list) through a
    filter, counts and time-bounds the survivors, optionally groups
    them, and prices them through {!Latency} — all in one pass with
    O({!Histo.bins} + groups + in-flight packets) memory, so event
    count never bounds what can be analysed. *)

type kind =
  | Hop
  | Syscall
  | Send
  | Receive
  | Drop
  | Link_change
  | Custom

val kind_name : kind -> string
val all_kinds : kind list

type filter = {
  kinds : kind list;  (** empty = all *)
  nodes : int list;  (** empty = all; a hop matches on src or dst *)
  link : (int * int) option;  (** directed; hops only *)
  phase : string option;  (** exact label match (send/receive/syscall/custom) *)
  since : float option;
  until : float option;  (** inclusive window *)
}

val no_filter : filter
val matches : filter -> Sim.Trace.event -> bool

val charged_node : Sim.Trace.event -> int option
(** The node an event is charged to: a hop to its destination (the
    critical-path convention), a link change to its initiator, a
    custom event to none. *)

type group_by = By_kind | By_node | By_phase | By_link


type group = {
  g_key : string;
  g_count : int;
  g_t_min : float;
  g_t_max : float;
}

type report = {
  source : string;
  header : (int * string * Sim.Trace_import.record) option;
      (** (schema_version, kind, extra fields) of the stream header *)
  lines : int;  (** records read, headers and telemetry included *)
  events : int;  (** trace events seen *)
  matched : int;  (** events surviving the filter *)
  truncated : (int * int * int) option;
      (** (dropped, dropped_ring, dropped_sink) when the stream carried
          a truncation record: the report is missing events *)
  other : (string * int) list;  (** non-event record types, by count *)
  t_min : float;  (** over matched events; [nan] when none *)
  t_max : float;
  by_kind : (kind * int) list;  (** matched events per kind, fixed order *)
  groups : (group_by * group list) option;
  latency : Latency.t;  (** over matched events *)
}

val run_events :
  ?cost:Hardware.Cost_model.t ->
  ?filter:filter ->
  ?group_by:group_by ->
  source:string ->
  Sim.Trace.event list ->
  report

val run_file :
  ?cost:Hardware.Cost_model.t ->
  ?filter:filter ->
  ?group_by:group_by ->
  string ->
  (report, string) result
(** Streaming: one line resident.  [Error] on an unreadable or
    malformed stream. *)

val pp : Format.formatter -> report -> unit
val to_json : report -> string
(** Deterministic ([%.12g] floats, fixed field order). *)
