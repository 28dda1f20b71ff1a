(** The tree-labelling and branching-path decomposition of Section 3.1.

    Labels are assigned leaves-up: a leaf gets 0; an interior node gets
    [l + 1] if at least two of its children carry the maximal child
    label [l], and [l] otherwise.  (This is the Strahler number of the
    rooted tree.)  Lemma 1: a node of label [l] has at most one child
    of label [l], so the edges of each label form vertex-disjoint
    downward chains; Theorem 2: the root's label is at most [log2 n].

    The decomposition cuts the tree into these maximal monochromatic
    chains ("branching paths").  Every non-root node lies on exactly
    one chain (the one containing its parent edge); the chain's {e
    head} is the upper endpoint, which relays the broadcast onto it. *)

type t

val compute : Netgraph.Tree.t -> t

val label : t -> int -> int
(** The label of a member node.
    @raise Invalid_argument if the node is not in the tree. *)

val max_label : t -> int
(** The root's label — the largest label in the tree (labels are
    monotone up every root-ward path). *)

val tree : t -> Netgraph.Tree.t

val paths : t -> int list list
(** The branching paths.  Each path is the node sequence
    [head; c1; c2; ...] along one maximal monochromatic chain (at
    least two nodes).  Every tree edge appears in exactly one path;
    every non-root node appears as a non-head of exactly one path.
    Paths are listed in preorder of their heads, then by first child. *)

val paths_from : t -> int -> int list list
(** The paths whose head is the given node.  At most one per child
    link, so at most the node's degree (the broadcast primitive can
    ship them all in one activation). *)

val path_label : t -> int list -> int
(** The common edge label of a decomposition path. *)

val depth_in_paths : t -> int -> int
(** The number of distinct paths a broadcast relayed along the
    decomposition crosses to reach the node from the root: 0 for the
    root, 1 for nodes on a path headed by the root, etc.  Theorem 2
    shows this is at most [1 + max_label - path_label] for the node's
    own path, hence at most [1 + log2 n]. *)

val max_path_depth : t -> int
(** Maximum of {!depth_in_paths} over all nodes — the number of time
    units the branching-paths broadcast needs. *)
