(** Single-token depth-first broadcast (Section 3.1).

    One packet traverses the spanning tree in depth-first order and is
    copied once by every node: n system calls and one time unit — but
    the token dies at the first inactive link it meets, losing every
    node after it in tour order.  The six-node example of Section 3
    shows the resulting topology-maintenance deadlock; this module is
    the baseline that exhibits it. *)

type msg = { origin : int }

val run :
  ?config:Broadcast.config ->
  graph:Netgraph.Graph.t ->
  root:int ->
  unit ->
  Broadcast.result
