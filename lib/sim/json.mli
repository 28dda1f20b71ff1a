(** The repo's one JSON reader and writer.

    Every JSON artefact the tools emit is built by [Printf] around the
    two writers here ({!string}, {!float}), and every one they read
    back — chaos repro files, schema-v2 trace streams
    ({!Trace_import}), the bench counter golden — goes through
    {!parse}.  A small recursive-descent parser over the full JSON
    value grammar keeps the library free of a JSON dependency.  It
    never raises: malformed input, including nesting deeper than 512
    levels, is an [Error] carrying the byte offset. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse one JSON value (surrounding whitespace allowed; anything
    after it is an error).  [\u] escapes decode to UTF-8. *)

(** {1 Accessors} — each returns [Error] with a path-less message on a
    shape mismatch, composing with [Result.bind]. *)

val member : string -> t -> (t, string) result
val to_float : t -> (float, string) result
val to_int : t -> (int, string) result
val to_string : t -> (string, string) result
val to_list : t -> (t list, string) result
val to_bool : t -> (bool, string) result

(** {1 Writers} *)

val escape : string -> string
(** Escape a string for embedding in a JSON string literal (quotes not
    included): [\"], [\\], [\n], [\t], [\r], other control bytes as
    [\u00XX]; every other byte passes through, so
    [parse ("\"" ^ escape s ^ "\"") = Ok (Str s)] for any [s]. *)

val string : string -> string
(** [escape s] between double quotes: a JSON string literal. *)

val float : float -> string
(** ["%.12g"]: enough for the simulator's sums of C/P delays, and
    byte-stable, which the golden files rely on.  NaN and infinities
    print as [nan]/[inf], which is not JSON; callers that can meet
    them map them first. *)

val render : t -> string
(** Compact one-line rendering: no whitespace, numbers through
    {!float}, object fields in list order. *)
