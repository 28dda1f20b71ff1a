(** Graph traversals: breadth-first, depth-first, components. *)

val bfs_order : Graph.t -> root:int -> int list
(** Nodes reachable from [root] in breadth-first order (ties broken by
    increasing node id). *)

val bfs_layers : Graph.t -> root:int -> int list list
(** Reachable nodes grouped by hop distance; layer 0 is [[root]]. *)

val distances : ?edge_up:(int -> bool) -> Graph.t -> root:int -> int array
(** Hop distances from [root]; [-1] marks unreachable nodes.  With
    [edge_up], only links whose undirected edge id satisfies it are
    crossed — the distances in that subgraph of [g], computed over
    [g]'s own adjacency. *)

val dfs_preorder : Graph.t -> root:int -> int list
(** Depth-first preorder from [root] (neighbours visited in increasing
    order). *)

val reachable : Graph.t -> root:int -> bool array

val component_of : Graph.t -> int -> int list
(** Sorted members of the connected component containing the node. *)

val components : Graph.t -> int list list
(** All connected components, each sorted, ordered by smallest
    member. *)
