(** The INOUT tree of a candidate's domain (Section 4.1).

    An origin records the set [IN] of nodes in its domain and the set
    [OUT] of outside neighbours of domain nodes, organised as a tree
    that is a subgraph of the network (so that the ANR route from the
    origin to any recorded node — and between any two recorded nodes —
    is linear in n).

    When candidate [i] captures domain [v] through OUT-node [o], the
    two trees are combined by attaching [v]'s tree (re-rooted at [o])
    at the edge that already joins [o] to [i]'s tree; [IN] and [OUT]
    are merged with [OUT := OUT_i ∪ OUT_v − IN].

    A domain is one open-addressing int table over its members, each
    slot packing the member's tree parent and its IN/OUT bit, plus
    IN/OUT counters and a lazy min-heap of OUT nodes: membership,
    parent and side are one int hash and a linear probe, and climbing
    the tree allocates nothing. *)

type t

val singleton : graph:Netgraph.Graph.t -> int -> t
(** The initial structure of node [v]: [IN = {v}], [OUT] = all of
    [v]'s neighbours, each attached directly to [v]. *)

val origin : t -> int
val mem : t -> int -> bool
val in_nodes : t -> int list
(** Members of IN, sorted. *)

val out_nodes : t -> int list
(** Members of OUT, sorted. *)

val size : t -> int
(** [|IN|] — the domain size S that defines level and phase. *)

val out_size : t -> int
(** [|OUT|]; zero exactly when the domain spans the network. *)

val out_min : t -> int option
(** The smallest OUT node, or [None] when OUT is empty — equal to the
    head of {!out_nodes} without building or sorting the list. *)

val route_array : t -> src:int -> dst:int -> int array
(** The walk between two recorded nodes along the tree, [src] first;
    length is at most the number of recorded nodes (the "linear length
    ANR").  The parent table is climbed directly (no tree
    materialisation) and the only allocation is the exact-size result.
    @raise Invalid_argument if either endpoint is not recorded. *)

val merge_into : winner:t -> victim:t -> entry:int -> unit
(** Combine after a capture through [entry], in place: the winner
    absorbs the victim, visiting only the victim's members — Θ(victim)
    per capture, so the winner's growing table is never re-copied.
    [entry] must be an OUT node of [winner] and an IN node of
    [victim].  The victim is not modified (election freezes and
    aliases captured structures).
    @raise Invalid_argument (before any mutation) on a bad capture. *)

val spanning_tree : t -> Netgraph.Tree.t
(** The internal tree over all recorded nodes (IN and OUT), rooted at
    the origin.  When OUT is empty — the leader's final state — this
    spans the whole network and carries the announcement tour. *)

val tour : t -> int array
(** The announcement tour: the Euler tour of {!spanning_tree} from the
    origin, children in ascending order, cut after the last first
    visit.  Position [i] packs [(node lsl 1) lor first], where [first]
    is 1 exactly at a node's first visit — position for position what
    [Walks.mark_first_visits (Walks.truncate (Walks.euler_tour
    (spanning_tree t)))] lists, built from the table without a tree. *)

val is_valid : graph:Netgraph.Graph.t -> t -> bool
(** Structural invariants: the tree is a subgraph of [graph], IN and
    OUT partition the members, the origin is IN, and every OUT node's
    neighbour set meets IN. *)
