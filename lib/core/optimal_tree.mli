(** The optimal computation trees of Section 5.2.

    Theorem 6 reduces optimal computation of a globally sensitive
    function on a complete graph to a tree-based convergecast over a
    fixed rooted tree, so optimality becomes a question about tree
    shape.  With worst-case hardware delay [C] per message and
    software delay [P] per NCU activation:

    - [S(t)] — the maximum number of nodes over which a tree-based
      algorithm can finish by time [t] — satisfies
      [S(t) = 0 (t < P)], [S(t) = 1 (t < 2P + C)], and
      [S(t) = S(t-P) + S(t-C-P)] (equation 3);
    - the tree itself satisfies [OT(t) = OT(t-P) <- OT(t-C-P)], where
      [<-] grafts the second tree's root as a fresh child of the
      first's root (equation 2);
    - only times of the form [iP + jC] matter, and [i, j <= n] for an
      n-node computation.

    Worked examples of the paper: [C=0, P=1] gives binomial trees with
    [S(k) = 2^(k-1)] (eq. 6); [C=1, P=1] gives Fibonacci trees with
    [S(k) = Fib(k)] (eq. 11); [C=1, P=0] (the traditional model)
    blows up — a star finishes any [n] in constant time. *)

type params = { c : float; p : float }

exception Unbounded
(** Raised by size/tree queries when [p = 0] and the requested horizon
    admits arbitrarily large trees (the traditional-model degeneracy
    of Example 2). *)

type t = { size : int; children : t list }
(** A rooted tree shape; node identities are immaterial. *)

val leaf : t
val graft : t -> t -> t
(** [graft a b] is the [<-] operation: [b]'s root becomes a new child
    of [a]'s root. *)

val size : t -> int
val depth : t -> int
val root_degree : t -> int
val nodes_per_depth : t -> int list
(** Node counts indexed by depth. *)

val s_of : ?cap:int -> params -> float -> int
(** [S(t)], saturated at [cap] (default [2^60]) — [S] grows
    exponentially in [t], so exact values at large horizons would
    overflow; callers compare against a target size anyway.
    @raise Unbounded when [p = 0] and [t >= c]. *)

val ot : params -> float -> t option
(** [OT(t)], or [None] when [S(t) = 0].
    @raise Unbounded as {!s_of}. *)

val optimal_time : params -> n:int -> float
(** The least grid time [iP + jC] at which [S(t) >= n] — the optimal
    worst-case completion time for computing a globally sensitive
    function over [n] nodes.
    @raise Unbounded when [p = 0] and [n > 1]. *)

val optimal_tree : params -> n:int -> t
(** A tree on exactly [n] nodes finishing by [optimal_time]: the
    [OT] at that time, pruned to [n] nodes (pruning never hurts the
    schedule).
    @raise Unbounded as {!optimal_time}. *)

val binomial : int -> t
(** The binomial tree [B_k] on [2^k] nodes ([B_0] is a leaf;
    [B_k = graft B_(k-1) B_(k-1)]). *)

val fibonacci : int -> t
(** The Fibonacci tree [FT_k] on [Fib(k)] nodes, [k >= 1]
    ([FT_1 = FT_2 = leaf]; [FT_k = graft FT_(k-1) FT_(k-2)]). *)

val star : int -> t
(** The star on [n] nodes: a root with [n-1] leaf children (optimal in
    the traditional model). *)

val chain : int -> t
(** The path on [n] nodes (pessimal; a useful contrast). *)

val fib : int -> int
(** The Fibonacci numbers with [fib 1 = fib 2 = 1]. *)

val enumerate_shapes : int -> t list
(** All rooted unordered trees on exactly [n] nodes, one representative
    per isomorphism class (1, 1, 2, 4, 9, 20, 48, 115, 286, 719
    shapes for n = 1..10).  Used to verify by brute force that the
    [S(t)] recursion is optimal over {e every} tree shape, not only
    the ones it constructs.  Exponential: keep [n <= 12].
    @raise Invalid_argument for [n < 1] or [n > 14]. *)

val predicted_completion : params -> t -> float
(** Worst-case completion time of the tree-based algorithm on this
    tree under the serial-NCU model: every node is triggered at time
    0 and takes [P] to start; a leaf's value then travels [C] and
    each parent processes arrivals one [P] at a time in FIFO order,
    forwarding when its subtree is complete.  For [OT(t)] this equals
    exactly the defining [t] (validated in the tests and against the
    discrete-event simulation). *)

val to_netgraph_tree : t -> Netgraph.Tree.t
(** Concretise with breadth-first node numbering, root = 0. *)
