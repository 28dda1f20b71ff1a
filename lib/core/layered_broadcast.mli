(** The layered BFS broadcast of Section 3's footnote.

    If headers of length O(n^2) are permitted (no path-length
    restriction), a single message can traverse the minimum-hop tree a
    layer at a time — first the subtree spanning all nodes within one
    hop, back to the origin, then the subtree within two hops, and so
    on — copied only on the first visit to each node.  Time is one
    unit and system calls n, and (unlike the plain depth-first token)
    a guarantee of convergence after O(log n) rounds can be recovered;
    the price is the huge header, which is why the paper develops the
    branching-paths scheme for the restricted-dmax model. *)

type msg = { origin : int }

val run :
  ?config:Broadcast.config ->
  graph:Netgraph.Graph.t ->
  root:int ->
  unit ->
  Broadcast.result
