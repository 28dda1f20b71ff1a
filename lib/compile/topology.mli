(** A compiled-topology artifact (DESIGN.md §12).

    One artifact bundles a scenario's whole setup product: the CSR
    graph, its BFS spanning tree rooted at node 0, the Section 3.1
    labelling / path decomposition, and the compiled ANR route table
    of the branching-paths broadcast.  Artifacts are built once —
    usually through {!Cache} — and shared by bench iterations, sweep
    replicas, chaos schedules and experiment rows, so per-run cost is
    algorithm execution, not scenario reconstruction.

    Derived fields fill lazily under a per-artifact mutex: sharing an
    artifact across pool workers is safe, and each field is computed
    at most once. *)

type key = {
  family : string;
      (** builder family tag, e.g. ["random-connected"], ["ring"] —
          cache identity is the whole key, so distinct builders must
          use distinct family tags *)
  n : int;
  seed : int;  (** 0 when the family is deterministic *)
  index : int;  (** replica / schedule index; 0 outside sweeps *)
  extra : int;  (** family-specific: extra_edges, dimension, ... *)
}

type t

val create : key:key -> Netgraph.Graph.t -> t
(** Wrap a freshly built graph; derived fields fill on first access.
    Most callers want {!Cache.find_or_build} instead. *)

val key : t -> key
val graph : t -> Netgraph.Graph.t

val tree : t -> Netgraph.Tree.t
(** The minimum-hop (BFS) spanning tree rooted at node 0. *)

val labelling : t -> Core.Labels.t
(** The labelling / path decomposition of {!tree}. *)

val routes : t -> chaos:Hardware.Fault_plan.t option -> Hardware.Anr.route array array option
(** The branching-paths route table,
    [Core.Branching_paths.compile_routes (graph t) ~root:0]: element
    [v] holds the compiled copy-all headers of
    [Labels.paths_from (labelling t) v] in path order, built without
    the tree or the labelling.  Returns [None] when a fault plan is
    armed: the plan mutates the live topology, and compiled routes must never be
    replayed across such a mutation — callers then rebuild headers
    from walks at send time (the route cache is invalidated, the
    graph and labelling remain valid because broadcasts compute them
    from the static view). *)
