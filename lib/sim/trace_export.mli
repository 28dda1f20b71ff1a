(** Machine-readable trace serialisation.

    Two formats, both built from a {!Trace.t}:

    - {e JSONL}: one JSON object per event, one event per line, in
      chronological order — the stable interchange format consumed by
      the golden tests, CI artifacts, and external analysis scripts;
    - {e Chrome [trace_event]}: a JSON object loadable in
      [chrome://tracing] / Perfetto.  Every node is rendered as its
      own track (pid 0, tid = node id); matched [Send]/[Receive]
      pairs (same [msg_id]) become async span events stretching from
      injection at the sender to NCU delivery at the receiver, while
      system calls, hops, drops and link transitions are instant
      events on the track of the node they happen at.

    Simulated time is unitless; both exporters scale one simulated
    time unit to 1000 Chrome microseconds (1 ms) so the [C]/[P]
    delay structure is visible at Perfetto's default zoom.

    Output is deterministic byte-for-byte for a given trace: field
    order is fixed and floats are printed with ["%.12g"].  This is
    what makes golden-file testing of the exporters possible. *)

val schema_version : int
(** Version of the JSONL record vocabulary.  Streamed exports carry
    it in their header record; {!Trace_import} refuses newer ones. *)

val jsonl_of_event : Trace.event -> string
(** One event as a single-line JSON object (no trailing newline).
    Every object carries ["type"] and ["time"] fields plus the
    event's own payload fields. *)

val jsonl : Trace.t -> string
(** All events of the trace, one {!jsonl_of_event} line each,
    newline-terminated, chronological order.  When the trace lost
    events ([Trace.dropped > 0]), the first line is a
    [{"type":"truncated","time":...,"dropped":N,"dropped_ring":R,
    "dropped_sink":S}] warning record, so a consumer can never mistake
    a truncated trace for a complete one. *)

(** {1 Streaming}

    The bounded-memory export path: events are serialised as they are
    recorded and pushed through a {!Sink.t}, so a run of any size
    exports in O(sink buffer) memory.  Output is byte-identical to a
    materialised {!jsonl} of the same complete run (modulo the
    header record), whatever the sink buffer size or [--jobs] width. *)

val stream_header : ?kind:string -> ?fields:(string * string) list -> unit ->
  string
(** The first line of a streamed export:
    [{"type":"header","schema_version":N,"kind":...}] plus [fields]
    (pre-rendered JSON values, e.g. [("n", "4096")]) appended in
    order.  [kind] defaults to ["trace"]. *)

val event_consumer : Sink.t -> Trace.event -> bool
(** Serialise one event through the sink; [false] when refused. *)

val stream_trace : Sink.t -> Trace.t
(** [stream_trace sink] is
    [Trace.streaming ~consumer:(event_consumer sink) ()]: a trace whose
    events stream through [sink] as they happen. *)

val stream_finish : ?time:float -> Sink.t -> Trace.t -> unit
(** End a streamed export: when the trace lost events, emit a trailing
    truncation record (a streamed file cannot carry a leading one),
    then flush the sink.  Does not close it — the caller owns the
    sink. *)

val chrome : ?decorate:(int -> string) -> Trace.t -> string
(** The whole trace as one Chrome [trace_event] JSON document:
    [{"displayTimeUnit": "ms", "traceEvents": [...]}].
    The process name ["futurenet"] labels pid 0.

    [decorate i] returns extra JSON fields (e.g. [",\"cname\":\"terrible\""],
    empty by default) appended to every [trace_event] object derived
    from the [i]-th chronological trace event — the hook the
    critical-path profiler uses to colour the events on the path.  A
    truncated trace additionally gets a global instant warning event. *)

