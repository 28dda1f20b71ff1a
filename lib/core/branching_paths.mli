(** The branching-paths broadcast of Section 3.1.

    The broadcaster computes a minimum-hop spanning tree of its
    current view, labels it ({!Labels}), and decomposes it into
    monochromatic paths.  It ships the message — which carries a
    description of the tree — over every path that starts at itself,
    with a selective copy at each path node; each node that heads
    further paths relays the message onto them upon its (single)
    copy.

    Properties reproduced here (and checked in the test suite):
    - exactly [n] system calls per broadcast on a failure-free network
      (the root's trigger plus one copy per other node);
    - completion within [1 + log2 n] path-generations (Theorem 2);
    - one-way: every tree link is traversed only away from the root,
      so a link failure silently truncates the affected paths and the
      maintenance protocol converges (Theorem 1). *)

type compiled = {
  table : Hardware.Anr.route array array;
      (** [table.(v)]: the compiled copy-all headers of the chains [v]
          heads, in ascending order of their first child *)
  parent : int array;
      (** the BFS tree's parent of each node; [-1] at the root and
          outside its component *)
}
(** A broadcast tree compiled for the switching fabric
    ({!compile_routes}). *)

type msg =
  | Data of {
      origin : int;  (** the broadcasting node *)
      routes : compiled;
          (** the broadcast tree's compiled route table and parent
              array — the "tree description" the paper puts in the
              message.  The root compiles it once (or ships one
              compiled ahead of time); each relay ships its own row
              and each recovery ack climbs [parent], so no node builds
              a header from a walk. *)
      attempt : int;
          (** 0 for the original broadcast; [k > 0] marks the [k]-th
              retransmission under recovery.  Relays forward once per
              attempt; acceptance ([reached]) is idempotent, keeping
              application-level delivery at-most-once. *)
    }
  | Ack of { src : int }
      (** recovery only: [src] acknowledges its acceptance of the
          current attempt, routed up the broadcast tree to the origin *)

val tree_for : view:Netgraph.Graph.t -> root:int -> Netgraph.Tree.t
(** The minimum-hop (BFS) spanning tree of the root's component of its
    view — step (1) of the periodic algorithm. *)

val predicted_time_units : Netgraph.Tree.t -> int
(** The number of path-generations the broadcast needs — Theorem 2
    bounds this by [1 + log2 n].  Measured wall time is
    [(1 + this) * P] under the deterministic C=0 model (the extra unit
    is the root's own trigger activation). *)

val compile_routes :
  ?edge_up:(int -> bool) -> Netgraph.Graph.t -> root:int -> compiled
(** The branching-paths route table of [root]'s minimum-hop spanning
    tree over the links [edge_up] keeps (an undirected-edge-id
    predicate, default all), with that tree's parent array: element
    [v] of the table holds the compiled copy-all headers of the chains
    [v] heads, in ascending order of their first child ([[||]] for
    nodes that head no chain or lie outside [root]'s component).  The
    table equals compiling [Labels.paths_from (Labels.compute
    (Netgraph.Spanning.bfs_tree ?edge_up graph ~root)) v] walk by
    walk, but builds no tree, no labelling and no list: one masked BFS
    over the CSR and a few int arrays of length [n] (DESIGN.md §12). *)

val compile_view :
  graph:Netgraph.Graph.t -> view:Netgraph.Graph.t -> root:int -> compiled
(** [root]'s table over its view: {!compile_routes} over the network
    [graph] with every link [view] lacks masked out, so the tree is
    [tree_for ~view ~root] and the headers carry [graph]'s local link
    indices.  [view] is a subgraph of [graph] on the same nodes;
    [view == graph] compiles unmasked. *)

val spec :
  ?precomputed:Labels.t ->
  ?routes:compiled ->
  ?recovery:Broadcast.Recovery.t ->
  multicast:bool ->
  reached:bool array ->
  view:Netgraph.Graph.t ->
  int ->
  msg Hardware.Network.handlers
(** Low-level handler factory, for embedding the broadcast in custom
    harnesses — {!run} wraps it.  [spec ... ~reached ~view] builds one
    handler record, in O(1), and returns it for every node: each
    handler takes its node from [Network.self ctx], so a run allocates
    no per-node handlers.

    [routes] is the root's compiled tree, computed ahead of time (e.g.
    by a {!Compile.Topology} artifact); without it the root compiles
    [compile_view ~graph ~view ~root] once, at start.  Either way every
    send, relay and ack ships a compiled header, fault plan or not,
    and the run's packets, metrics and timings are the same, which
    test/suite_compile.ml checks.

    [precomputed] is ignored: a shim kept for the benchmark's callers,
    to go with its next revision. *)

val run :
  ?config:Broadcast.config ->
  ?multicast:bool ->
  ?precomputed:Labels.t ->
  ?routes:compiled ->
  graph:Netgraph.Graph.t ->
  root:int ->
  unit ->
  Broadcast.result
(** [multicast] (default true) models the PARIS primitive that ships
    one packet per outgoing link in a single activation — the paths
    from one head go through distinct child links, so the whole relay
    costs one time unit.  With [multicast:false] each path costs its
    own activation (ablation A1): the broadcast stays at n deliveries
    but its completion time degrades from O(log n) toward
    O(log n * max-degree).  [routes] and [precomputed] are as in
    {!spec}.

    Under a fault plan ([config.chaos]) the run ships the same compiled
    routes: they are a function of the root's view when it starts,
    which the plan does not change, and a header that meets a failed
    link is dropped there as the hardware drops any packet.

    When [config.recover] is set, the run is self-healing: receivers
    acknowledge each accepted attempt up the broadcast tree and the
    root retransmits under capped exponential backoff until everyone
    acked or the retry budget is spent (DESIGN.md §16). *)
