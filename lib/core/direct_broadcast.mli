(** Direct-message broadcast: one source-routed packet per node.

    "For example, i may send a message directly to each node.  The
    system call and time complexities are both O(n)." (Section 3.1.)

    The free multicast primitive ships at most one packet per outgoing
    link per activation (it transmits the {e same} message over
    multiple links; distinct headers to distinct destinations over the
    same link require separate processing).  The root therefore sends
    in rounds: each activation dispatches one pending packet per
    outgoing link, and re-activates itself until all destinations are
    served — ⌈(n-1)/degree⌉·P time at the root, plus delivery. *)

type msg = { origin : int }

val run :
  ?config:Broadcast.config ->
  graph:Netgraph.Graph.t ->
  root:int ->
  unit ->
  Broadcast.result
