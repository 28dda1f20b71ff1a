(** Plain-text table rendering for the experiment harness. *)

type t

val create : title:string -> columns:string list -> t
val add_row : t -> string list -> unit
val add_note : t -> string -> unit

val cell_int : int -> string
val cell_float : ?decimals:int -> float -> string
val cell_bool : bool -> string

val print : t -> unit
(** Render to stdout: aligned columns, a rule under the header, notes
    after the body. *)
