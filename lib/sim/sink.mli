(** Streaming line sinks.

    A sink accepts one JSONL line at a time and is the back end of the
    streaming trace pipeline ({!Trace_export.stream_trace}): instead of
    materialising a run in the ring buffer, every event is serialised
    and pushed through a sink, so a run of any size exports in
    O(sink buffer) memory.

    [emit] is the only hot operation.  It returns [false] when the sink
    refused the line (backpressure: a bounded file sink past its byte
    budget); callers account such refusals separately from ring
    evictions (see {!Trace.dropped_sink}).  Lines are emitted {e
    without} a trailing newline — the sink appends exactly one ['\n']
    per accepted line, so output is byte-identical whatever the buffer
    size. *)

type t

val create :
  ?flush:(unit -> unit) -> ?close:(unit -> unit) -> emit:(string -> bool) ->
  unit -> t
(** Build a sink from callbacks.  [emit line] must accept or refuse the
    (newline-free) line; accounting and close-state checks are handled
    by the wrapper. *)

val emit : t -> string -> bool
(** [emit t line] offers one line.  Returns [false] iff the sink
    refused it.  Raises [Invalid_argument] on a closed sink. *)

val flush : t -> unit
(** Push buffered bytes downstream.  No-op on a closed sink. *)

val close : t -> unit
(** Flush and release the sink.  Idempotent.  After [close], {!emit}
    raises. *)

val emitted : t -> int
(** Lines accepted so far. *)

val dropped : t -> int
(** Lines refused so far. *)

val bytes : t -> int
(** Bytes accepted so far (line lengths plus one newline each). *)

(** {1 Built-in sinks} *)

val buffer : Buffer.t -> t
(** Appends every accepted line (plus newline) to [buf]. *)

val file : ?chunk_bytes:int -> ?max_bytes:int -> string -> t
(** Opens [path] for writing and streams accepted lines to it in
    chunks of at least [chunk_bytes] (default 64 KiB), holding at most
    one chunk in memory.  When [max_bytes] is given, lines that would
    push the file past the budget are refused (counted as dropped) —
    the file always ends on a line boundary.  {!close} flushes and
    closes the file. *)
