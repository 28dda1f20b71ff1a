(** Automatic Network Routing headers (source routing).

    A header is the concatenation of per-switch link IDs along the
    intended walk (Section 2, "the hardware model").  Each element is
    interpreted and consumed by exactly one switching subsystem:

    - a {e normal} ID forwards the remaining packet over the named
      local link;
    - a {e copy} ID forwards it {e and} delivers a copy to the local
      NCU (Figure 3, "selective copy");
    - the reserved ID [0] names the link to the local NCU, terminating
      the route (Figure 2).

    Headers are built from node-level walks: the walk may revisit
    nodes (the DFS and layered broadcasts of Section 3 traverse
    walks), but consecutive nodes must be graph-adjacent.

    A header is a {!route}: its elements packed into one immutable int
    array, built once per send and then advanced by an integer cursor
    at every hop, so forwarding a packet allocates nothing. *)

type route
(** A header: one int per element, cursor-addressed. *)

val of_walk : ?copy_at:(int -> bool) -> Netgraph.Graph.t -> int array -> route
(** [of_walk g walk] builds the header that routes a packet injected
    at [walk.(0)] through every subsequent node, terminating at the
    last node's NCU.  [copy_at v] (default [fun _ -> false]) requests
    a selective copy to the NCU of intermediate node [v]; it is not
    consulted for the injecting node, which already holds the message,
    nor for the final node, which always receives the packet.

    A walk of length 1 yields the empty route (self-delivery is not a
    network operation: the switch drops an empty header).

    @raise Invalid_argument if consecutive walk nodes are not adjacent
    or the walk is empty. *)

val of_walk_marked : Netgraph.Graph.t -> int array -> route
(** Like {!of_walk} but with an explicit copy flag per walk position,
    so a walk that revisits a node (e.g. a depth-first tour) can copy
    at chosen visits only.  Position [i] packs
    [(node lsl 1) lor flag], as [Walks.mark_first_visits] emits it;
    the flag requests a copy at that node as the packet passes through
    it towards position [i+1].  The first
    position's flag is ignored (the injector already has the message)
    and the final node always receives the packet.
    @raise Invalid_argument if the walk is empty. *)

val hop : int -> route
(** [hop link] sends over the local link [link] to the neighbour's
    NCU: the one-hop header of a flood or a maintenance relay. *)

val code : link:int -> copy:bool -> int
(** One packed element, for a compiler that writes its routes with
    {!route_of_codes}.  [code ~link:0 ~copy:false] is the NCU element
    every route ends in. *)

val route_of_codes : int array -> route
(** Adopt packed elements ({!code} each, ending in the NCU element) as
    a route without copying them — for a compiler that knows every
    local link index already, as the branching-paths route table does.
    The array must not be mutated afterwards.  [[||]] is the empty
    route.
    @raise Invalid_argument if a non-empty array does not end in the
    NCU element. *)

val route_length : route -> int
(** Number of header elements — the path-length measure that [dmax]
    bounds (Section 2, "path length restriction"). *)

val route_link : route -> int -> int
(** The link id of the element at a cursor position. *)

val route_copy : route -> int -> bool
(** The copy flag of the element at a cursor position. *)

val copy_targets : Netgraph.Graph.t -> src:int -> route -> int list
(** Nodes whose NCU receives the packet: the selective-copy nodes in
    walk order, plus the terminal node. *)

val id_bits : Netgraph.Graph.t -> int
(** The per-element ID width [k] of the paper's header encoding: each
    element is one [k]-bit ID, [k = O(log m)], here
    [ceil(log2 (2 * (max_degree + 1)))] so every switch can name each
    incident link's normal and copy IDs plus the NCU. *)

val pp : Format.formatter -> route -> unit
