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
    walks), but consecutive nodes must be graph-adjacent. *)

type elem = { link : int; copy : bool }
(** One header element: local link index at the consuming switch.
    [link = 0] addresses the NCU and must not carry [copy]. *)

type t = elem list
(** Header elements in consumption order. *)

val deliver : elem
(** The terminating element [{link = 0; copy = false}]. *)

val of_walk : ?copy_at:(int -> bool) -> Netgraph.Graph.t -> int list -> t
(** [of_walk g walk] builds the header that routes a packet injected
    at the head of [walk] through every subsequent node, terminating
    at the last node's NCU.  [copy_at v] (default [fun _ -> false])
    requests a selective copy to the NCU of intermediate node [v]; it
    is not consulted for the final node, which always receives the
    packet.

    A walk of length 1 yields the empty route (self-delivery is not a
    network operation and is rejected by {!val:deliver}-less send).

    @raise Invalid_argument if consecutive walk nodes are not adjacent
    or the walk is empty. *)

val of_walk_marked : Netgraph.Graph.t -> (int * bool) list -> t
(** Like {!of_walk} but with an explicit copy flag per walk position,
    so a walk that revisits a node (e.g. a depth-first tour) can copy
    at chosen visits only.  The flag of position [i] requests a copy
    at that node as the packet passes through it towards position
    [i+1]; the first position's flag is ignored (the injector already
    has the message) and the final node always receives the packet. *)

val hops : t -> int
(** Number of link traversals the header encodes (copy elements count
    once; the terminating NCU element counts zero). *)

val length : t -> int
(** Number of header elements — the path-length measure that [dmax]
    bounds (Section 2, "path length restriction"). *)

(** {1 Compiled routes}

    The list form is the construction/inspection API; the switching
    fabric consumes a {!route}: the same elements packed into one
    immutable int array, compiled once per {!Network.send} and then
    advanced by an integer cursor at every hop, so forwarding a packet
    allocates nothing. *)

type route
(** A compiled header: one int per element, cursor-addressed. *)

val compile : t -> route

val route_of_codes : int array -> route
(** Adopt packed elements, [(link lsl 1) lor copy] each and ending in
    the NCU element [0], as a route without copying them — for a
    compiler that knows every local link index already, as the
    branching-paths route table does.  The array must not be
    mutated afterwards.  [[||]] is the empty route.
    @raise Invalid_argument if a non-empty array does not end in [0]. *)

val route_length : route -> int
(** Number of elements — equals {!length} of the source header. *)

val route_link : route -> int -> int
(** The link id of the element at a cursor position. *)

val route_copy : route -> int -> bool
(** The copy flag of the element at a cursor position. *)

val compile_walk_arr :
  ?copy_at:(int -> bool) -> Netgraph.Graph.t -> int array -> route
(** [compile (of_walk ?copy_at g walk)] over an int-array walk — the
    form the election's array-based route bookkeeping produces —
    without the intermediate list, so building the route allocates
    nothing beyond the result. *)

val compile_walk_marked_arr : Netgraph.Graph.t -> int array -> route
(** [compile (of_walk_marked g walk)] over a packed walk: position [i]
    is [(node lsl 1) lor flag].  The election compiles its
    announcement tour this way, straight from the leader's table.
    @raise Invalid_argument if the walk is empty. *)

val copy_targets : Netgraph.Graph.t -> src:int -> t -> int list
(** Nodes whose NCU receives the packet: the selective-copy nodes in
    walk order, plus the terminal node. *)

val id_bits : Netgraph.Graph.t -> int
(** The per-element ID width [k] of the paper's header encoding: each
    element is one [k]-bit ID, [k = O(log m)], here
    [ceil(log2 (2 * (max_degree + 1)))] so every switch can name each
    incident link's normal and copy IDs plus the NCU. *)

val pp : Format.formatter -> t -> unit
