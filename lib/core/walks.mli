(** Tree walks used by the single-message broadcasts of Section 3.

    A depth-first token (and the layered variant of the footnote)
    traverses the spanning tree as one packet whose ANR header encodes
    an Euler tour; selective copies are dropped at each first visit. *)

val euler_tour :
  ?order:(self:int -> children:int list -> int list) ->
  Netgraph.Tree.t ->
  int list
(** The closed depth-first tour from the root: each tree edge is
    crossed exactly twice; [2 * size - 1] entries.  [order] picks the
    order in which a node visits its children (default: increasing
    ids, the tree's own order). *)

val truncate : int list -> int list
(** The walk cut after its last first visit: a tour then ends at the
    last node it reaches instead of returning to the root, so the
    final NCU delivery lands on a node that still needs the message. *)

val restrict_to_depth : Netgraph.Tree.t -> int -> Netgraph.Tree.t
(** The subtree spanning all members within the given depth of the
    root (the "layer-at-a-time" restriction of the footnote). *)

val mark_first_visits : int list -> (int * bool) list
(** Pair every walk position with a flag that is [true] exactly on the
    first occurrence of each node — the copy marks for a tour-based
    broadcast. *)
