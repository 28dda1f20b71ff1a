(** ARPANET-style flooding broadcast (the baseline of [MRR80]).

    On its first receipt of the message each node forwards it over
    every active incident link except the one it arrived on.  Under
    the traditional measure this is the standard O(m)-message,
    O(diameter)-time broadcast; under the new measure every forwarded
    copy still costs a full system call at the receiving NCU, so the
    system-call complexity stays Θ(m) — the paper's motivation for
    the branching-paths scheme. *)

type msg =
  | Data of { origin : int; attempt : int }
      (** the flooded payload; [attempt] > 0 marks a retransmission
          wave (each node floods once per attempt) *)
  | Ack of { src : int }
      (** recovery only: acceptance ack, routed up a BFS tree of the
          root's view *)

val spec :
  ?recovery:Broadcast.Recovery.t ->
  ?ack_parent:int array ->
  reached:bool array ->
  view:Netgraph.Graph.t ->
  int ->
  msg Hardware.Network.handlers
(** Low-level handler factory, for embedding in custom harnesses.
    [spec ... ~reached ~view] builds one handler record per run and
    returns it for every node: each handler takes its node from
    [Network.self ctx].  [ack_parent] must accompany [recovery]: the
    BFS parent array of the view, which acks climb
    ({!Broadcast.Recovery.send_ack}). *)

val run :
  ?config:Broadcast.config ->
  graph:Netgraph.Graph.t ->
  root:int ->
  unit ->
  Broadcast.result
(** When [config.recover] is set the flood self-heals: each node acks
    every accepted attempt to the root along a BFS tree of the view,
    and the root re-floods under capped exponential backoff until all
    acked or the retry budget is spent (DESIGN.md §16). *)
