(** Topology views: the data the maintenance protocol replicates.

    Each node owns a {e local view} — the states of its adjacent links
    — stamped with a sequence number incremented at every broadcast
    (as in the ARPANET).  A node's picture of the network is a
    database of the freshest local view it has received from each
    origin; the believed topology is assembled from those views.

    A view is stored and shipped as a {e delta} against the physical
    adjacency: only the peers whose link the origin believes down are
    listed.  A healthy node's view is four words (the empty delta is
    shared), so steady-state maintenance payloads no longer carry
    Θ(degree) link lists. *)

type local_view = {
  origin : int;
  seq : int;
  downs : int array;  (** sorted peers whose link the origin believes down *)
}

val no_downs : int array
(** The shared empty delta — the view body of a node with all links
    up.  Physically equal across all healthy views. *)

val reports_down : local_view -> int -> bool
(** Does the view list this peer as down?  Binary search, no
    allocation. *)

type db

val create : ?graph:Netgraph.Graph.t -> unit -> db
(** An empty database.  With [graph], it also {e tracks} its believed
    edge set: a bitset over [graph]'s undirected edge ids, kept current
    by {!update}, {!set_own}, {!attach_base} and {!clear} at O(degree)
    per origin whose down-set changes (a fresher view with the same
    [downs] costs nothing).  A node that broadcasts over, or is
    checked against, its believed topology needs a tracking database;
    a pure relay does not. *)

val attach_base : db -> local_view array -> unit
(** Install a shared base layer: a dense by-origin view array the
    database falls back to for origins its overlay has not shadowed.
    Preseeding every node with full topology knowledge shares ONE
    seq-0 array across all databases — Θ(n) total instead of Θ(n²)
    per-node entries.  Received views shadow base entries by the usual
    freshness rule. *)

val update : db -> local_view -> bool
(** Absorb a view if it is strictly fresher than the stored one (or no
    view from that origin is stored).  Returns whether it was
    absorbed. *)

val update_all : db -> local_view list -> bool
(** Absorb many views; true if any was fresher. *)

val set_own : db -> local_view -> unit
(** Overwrite the entry for the node's own origin unconditionally —
    used when the data-link layer reports a local change between
    broadcasts. *)

val clear : db -> unit
(** Forget every view, the base layer included (a recovering node's
    amnesia).  The {!version} still moves forward. *)

val find : db -> int -> local_view option
val all_views : db -> local_view list
(** Views sorted by origin. *)

val believed_edge : db -> int -> int -> bool
(** Is a physical edge believed active: at least one endpoint has
    reported and no reporting endpoint lists the other as down (the
    ARPANET AND rule; a single report is trusted). *)

val believes : db -> int -> bool
(** [believes db e]: is the physical link with undirected edge id [e]
    believed active — {!believed_edge} read from the tracked bitset, in
    O(1).  The believed topology is the subgraph of these links, so it
    is a subgraph of the physical one by construction.
    @raise Invalid_argument if the database does not track. *)

val version : db -> int
(** Counts the changes of the tracked believed edge set: anything
    derived from the believed topology (a spanning tree, a route
    table) stays valid while the version stands still. *)

val consistent_with :
  db -> graph:Netgraph.Graph.t -> actual:Netgraph.Graph.t -> node:int -> bool
(** Eventual-consistency check of [T77]: does the believed topology
    agree with [actual] (the currently-active subgraph of the physical
    [graph]) on [node]'s actual connected component — same reachable
    node set and same edge set within it?  Works on any database; the
    reference for {!consistent_live}. *)

type live
(** One snapshot of the live links of a physical graph: their bitset
    and whether they connect the whole graph. *)

val live : Netgraph.Graph.t -> up:(int -> int -> bool) -> live
(** The links [(u, v)] of the graph with [up u v]; Θ(m) once per
    snapshot. *)

val consistent_live : db -> live -> node:int -> bool
(** {!consistent_with} against the snapshot, for a tracking database:
    equal edge bitsets are consistent; otherwise a connected live graph
    makes [node]'s component the whole graph, so the node is
    inconsistent; only a partitioned one falls back to the
    per-component comparison.  Allocation-free unless it falls back.
    @raise Invalid_argument if the database does not track. *)
