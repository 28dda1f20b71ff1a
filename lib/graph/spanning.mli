(** Spanning-tree construction.

    The topology-maintenance broadcast computes, at each node and each
    period, a spanning tree of *minimum-hop paths* rooted at the
    broadcaster (Section 3.1, step (1)); this is a BFS tree of the
    node's current view. *)

val bfs_tree : ?edge_up:(int -> bool) -> Graph.t -> root:int -> Tree.t
(** Minimum-hop spanning tree of the connected component of [root].
    Each node's parent is its smallest-id neighbour in the previous
    BFS layer, so the tree is a deterministic function of the graph.
    With [edge_up] (see {!Traversal.distances}) the tree spans [root]'s
    component of the subgraph of links whose undirected edge id
    satisfies it — the same tree as on that subgraph built as a graph
    of its own. *)

val dfs_tree : Graph.t -> root:int -> Tree.t
(** Depth-first spanning tree of [root]'s component (neighbours in
    increasing order). *)

val random_spanning_tree : Sim.Rng.t -> Graph.t -> root:int -> Tree.t
(** A uniform-ish random spanning tree of [root]'s component, produced
    by a randomised BFS (random queue-pop order).  Used to widen test
    coverage; no distributional guarantee. *)
