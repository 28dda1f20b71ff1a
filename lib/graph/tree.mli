(** Rooted trees over a subset of a graph's nodes.

    The broadcast of Section 3 operates on rooted spanning trees of the
    sender's current topology view; the election of Section 4 keeps
    virtual trees of domains; Section 5 builds optimal computation
    trees.  This module is the shared representation: a parent array
    restricted to one root, with sorted children and the preorder
    materialised for traversal.

    Nodes are non-negative integers; the tree need not span [0..n-1] —
    membership is explicit.  The arrays are indexed by node id, so a
    tree's memory grows with its largest member id, not only with its
    size: relabel sparse ids before building. *)

type t

val of_parents : root:int -> parents:(int * int) list -> t
(** [of_parents ~root ~parents] builds the tree whose members are
    [root] plus the first components of [parents]; each pair [(v, p)]
    states that [p] is the parent of [v].  Children lists are sorted
    increasingly.
    @raise Invalid_argument if a member id is negative, or if the
    structure is not a tree rooted at [root] (cycle, duplicate child
    entry, orphaned parent, or a parent pointer on the root). *)

val of_parent_array : root:int -> int array -> t
(** [of_parent_array ~root parent] is the tree whose members are
    [root] and every [v] with [parent.(v) >= 0], that entry being
    [v]'s parent; negative entries mark non-members.  The tree takes
    the array over: the caller must not modify it afterwards.
    @raise Invalid_argument on the same faults as {!of_parents}, or a
    [root] outside the array. *)

val root : t -> int
val size : t -> int
val parent : t -> int -> int option
(** [parent t v] is [None] exactly on the root.
    @raise Invalid_argument if [v] is not a member. *)

val children : t -> int -> int list
val nodes : t -> int list
(** Members in preorder (root first, children visited in increasing
    order). *)

val depth_of : t -> int -> int
(** Edge-distance from the root. *)

val height : t -> int
(** Maximum depth over members; 0 for a single node. *)

val path_from_root : t -> int -> int list
(** [path_from_root t v] lists the members from the root down to [v],
    inclusive. *)

val edges : t -> (int * int) list
(** All (parent, child) pairs, in preorder of the child. *)

val map_nodes : (int -> int) -> t -> t
(** Relabel members.
    @raise Invalid_argument, as {!of_parents} does, if the mapping is
    not injective on members or yields a negative id. *)

val pp : Format.formatter -> t -> unit
(** Render as an indented ASCII outline. *)
