(** Undirected simple graphs with per-endpoint link indices.

    This is the communication-network graph [(V, E)] of the paper's
    model (Section 2).  Nodes are the integers [0 .. n-1].  Each
    node's incident links carry small local indices starting at 1 —
    index 0 is reserved for the link to the node's own NCU — exactly
    as required by the hardware model's ANR link IDs (each switch
    assigns IDs that are unique only within that switch, of length
    O(log degree) bits).

    The structure is immutable after construction; dynamic topology
    (link failures) is modelled by the hardware runtime on top of a
    fixed underlying graph, matching the paper's "active/inactive
    link" formulation. *)

type t

type node = int

val of_edges : n:int -> (node * node) list -> t
(** [of_edges ~n edges] builds the graph on nodes [0..n-1].  Duplicate
    edges are collapsed; self-loops are rejected.
    @raise Invalid_argument on out-of-range endpoints, [n <= 0], or a
    self-loop. *)

val n : t -> int
(** Number of nodes, |V|. *)

val m : t -> int
(** Number of edges, |E|. *)

val neighbors : t -> node -> node list
(** Adjacent nodes, in increasing order.  Allocates a fresh list; hot
    paths should prefer {!iter_neighbors} / {!fold_neighbors}. *)

val iter_neighbors : (node -> unit) -> t -> node -> unit
(** Apply to each neighbour in increasing order, without allocating. *)

val fold_neighbors : (node -> 'a -> 'a) -> t -> node -> 'a -> 'a
(** Fold over the neighbours in increasing order, without allocating
    an intermediate list. *)

val degree : t -> node -> int

val max_degree : t -> int

val has_edge : t -> node -> node -> bool

val edges : t -> (node * node) list
(** All edges with [u < v], lexicographically sorted. *)

val link_index : t -> node -> node -> int
(** [link_index g u v] is the local index (>= 1) of the link at [u]
    leading to neighbour [v].
    @raise Not_found if [v] is not adjacent to [u]. *)

val peer_via : t -> node -> int -> node
(** [peer_via g u i] is the node at the far end of [u]'s local link
    [i].  Inverse of {!link_index}.
    @raise Not_found if [u] has no link with index [i]. *)

(** {1 Flat directed-edge indexing}

    The adjacency is stored as a single CSR (compressed sparse row)
    layout: every (node, local link index) pair names one of the [2m]
    {e directed edge ids}, densely numbered so per-link runtime state
    (FIFO clocks, link state words) can live in flat arrays.  The two
    directions of one physical link share an {e undirected edge id}
    in [0, m).  See DESIGN.md, "The switching-fabric fast path". *)

val directed_edge_count : t -> int
(** [2 * m g]: one id per (node, incident link) pair. *)

val edge_id : t -> node -> int -> int
(** [edge_id g u i] is the directed edge id of [u]'s local link [i]
    (with [1 <= i <= degree g u]; index 0 is the NCU and has no edge).
    @raise Not_found if [u] has no link with index [i]. *)

val edge_target : t -> int -> node
(** The node a directed edge id points at: [edge_target g (edge_id g
    u i) = peer_via g u i], without bounds checks. *)

val edge_uid : t -> int -> int
(** The undirected edge id ([0 <= id < m g]) of a directed edge id;
    equal for the two directions of one physical link. *)

val undirected_edge_id : t -> node -> node -> int
(** The undirected edge id of the link between two adjacent nodes.
    @raise Not_found if the nodes are not adjacent. *)

val fold_nodes : (node -> 'a -> 'a) -> t -> 'a -> 'a

val iter_nodes : (node -> unit) -> t -> unit

val is_connected : t -> bool

val induced : t -> node list -> t * node array
(** [induced g nodes] is the subgraph induced by [nodes] (duplicates
    ignored), relabelled to [0 .. k-1] in the sorted order of [nodes];
    the returned array maps new labels back to the original ones.
    Useful for running a connected-graph algorithm inside one
    component of a partitioned network.
    @raise Invalid_argument on an empty or out-of-range node list. *)
