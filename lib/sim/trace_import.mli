(** Reading back schema-v2 JSONL streams.

    The inverse of {!Trace_export.jsonl_of_event} and friends: one
    line per record, every record a flat JSON object whose first field
    is ["type"].  The parser accepts exactly the vocabulary this repo
    emits — trace events, stream headers (kind ["trace"] for
    {!Trace_export.stream_trace} exports, kind ["chaos_heartbeat"] for
    chaos soak progress files), trailing ["truncated"] records — and
    passes anything else through as {!Other} so heartbeat progress
    records and future record types survive a round trip without the
    reader learning about them.

    Reading is streaming: {!fold_file} keeps one line resident, so a
    10^6-event stream is analysed in O(longest line) memory. *)

type record = (string * Json.t) list
(** Fields of one flat object, in source order, ["type"] included; no
    value is an [Arr] or an [Obj]. *)

type line =
  | Header of { schema_version : int; kind : string; fields : record }
      (** a {!Trace_export.stream_header} line; [fields] carries the
          extra metadata (scenario, n, seed, ...) minus the three
          fixed keys *)
  | Event of Trace.event
  | Truncated of { time : float; dropped : int; dropped_ring : int;
                   dropped_sink : int }
  | Other of { kind : string; fields : record }
      (** any other record type (chaos heartbeat progress, shrink
          telemetry, ...); [kind] is the ["type"] field *)

val parse_record : string -> (record, string) result
(** Parse one line with {!Json.parse} and require a flat object.
    Nested arrays or objects are rejected: nothing in the schema-v2
    vocabulary emits them.  Never raises. *)

val parse_line : string -> (line, string) result
(** Classify one line.  Blank lines are an error (the writers never
    emit them); callers that tolerate them should skip before. *)

val fold_file :
  string -> init:'a -> f:('a -> lineno:int -> line -> 'a) -> ('a, string) result
(** [fold_file path ~init ~f] folds [f] over every line of [path] in
    order, streaming.  [lineno] is 1-based.  The first unreadable or
    unparsable line aborts with [Error "path:lineno: reason"]. *)

val events_of_file : string -> (Trace.event list, string) result
(** Just the events, in file order — headers, truncation and other
    records skipped.  Materialises the list; for large streams prefer
    {!fold_file}. *)

val number : record -> string -> float option
val int_field : record -> string -> int option
val string_field : record -> string -> string option
