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

type msg =
  | Data of {
      origin : int;  (** the broadcasting node *)
      labelling : Labels.t;
          (** the broadcast tree's labelling and path decomposition —
              the "tree description" the paper puts in the message so
              path heads recognise themselves.  Every relay would
              recompute the identical decomposition from the same tree,
              so the message shares the root's artifact instead of
              shipping raw edges and re-labelling at every head (which
              made setup quadratic). *)
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
  ?edge_up:(int -> bool) ->
  Netgraph.Graph.t ->
  root:int ->
  Hardware.Anr.route array array
(** The branching-paths route table of [root]'s minimum-hop spanning
    tree over the links [edge_up] keeps (an undirected-edge-id
    predicate, default all): element [v] holds the compiled copy-all
    headers of the chains [v] heads, in ascending order of their first
    child ([[||]] for nodes that head no chain or lie outside [root]'s
    component).  It equals compiling
    [Labels.paths_from (Labels.compute (Netgraph.Spanning.bfs_tree
    ?edge_up graph ~root)) v] walk by walk, but builds no tree, no
    labelling and no list: one masked BFS over the CSR and a few
    int arrays of length [n] (DESIGN.md §12). *)

val spec :
  ?precomputed:Labels.t ->
  ?routes:Hardware.Anr.route array array ->
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

    [precomputed] is the labelling of [tree_for ~view ~root] computed
    ahead of time (e.g. by a {!Compile.Topology} artifact); the root
    skips its setup step and ships it directly.  [routes] is the
    matching compiled route table — [routes.(v)] holds the compiled
    copy-all headers of [Labels.paths_from labelling v], in the same
    order — letting every head skip per-send header construction.
    Both are pure amortisations: the run's packets, metrics and
    timings are identical with or without them, which
    test/suite_compile.ml checks. *)

val run :
  ?config:Broadcast.config ->
  ?multicast:bool ->
  ?precomputed:Labels.t ->
  ?routes:Hardware.Anr.route array array ->
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
    O(log n * max-degree).

    When [config.chaos] carries a fault plan, [routes] is ignored: the
    plan mutates topology mid-run, and compiled routes must never be
    replayed across such a mutation (see {!Compile.Topology.routes},
    which refuses to hand them out in the first place).

    When [config.recover] is set, the run is self-healing: receivers
    acknowledge each accepted attempt up the broadcast tree and the
    root retransmits under capped exponential backoff until everyone
    acked or the retry budget is spent (DESIGN.md §16). *)
