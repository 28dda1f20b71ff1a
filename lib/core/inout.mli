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
    slot packing the member's tree parent and its IN/OUT bit beside
    the two local link indices of its tree edge, plus IN/OUT counters
    and a lazy min-heap of OUT nodes: membership, parent and side are
    one int hash and a linear probe, climbing the tree allocates
    nothing, and the routes below are written from the stored link
    indices without searching the graph. *)

type t

val singleton : graph:Netgraph.Graph.t -> int -> t
(** The initial structure of node [v]: [IN = {v}], [OUT] = all of
    [v]'s neighbours, each attached directly to [v].
    @raise Invalid_argument if a link index between [v] and a
    neighbour needs more than 31 bits. *)

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

val route_to : t -> int -> int array
(** The tree route from the origin to a recorded node: packed
    {!Hardware.Anr.code} elements ending in the NCU element, ready for
    {!Hardware.Anr.route_of_codes} — element for element what
    [Anr.of_walk] builds from the tree walk, including [[||]] for the
    origin itself.  Its length is at most the number of recorded nodes
    (the "linear length ANR").
    @raise Invalid_argument if the node is not recorded. *)

val route_home : t -> int -> int array
(** The reverse route, from a recorded node back to the origin, in the
    same form: what [Anr.of_walk] builds from the reversed walk.
    @raise Invalid_argument if the node is not recorded. *)

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

val tour : graph:Netgraph.Graph.t -> t -> int array
(** The announcement route, in {!route_to}'s form: the Euler tour of
    {!spanning_tree} from the origin, children in ascending order, cut
    after the last first visit, with a copy at every first visit past
    the origin — what [Anr.of_walk_marked] builds from
    [Walks.mark_first_visits (Walks.truncate (Walks.euler_tour
    (spanning_tree t)))], compiled from the table without a tree or a
    walk.  [[||]] for a one-node domain.  [graph] must be the graph the
    domain was built over. *)

val is_valid : graph:Netgraph.Graph.t -> t -> bool
(** Structural invariants: the tree is a subgraph of [graph] whose
    recorded link indices are [graph]'s, IN and OUT partition the
    members, the origin is IN, and every OUT node's neighbour set meets
    IN. *)
