(** A compiled-topology artifact (DESIGN.md §12).

    One artifact bundles a scenario's whole setup product: the CSR
    graph, its BFS spanning tree rooted at node 0, the Section 3.1
    labelling / path decomposition, and the compiled ANR route table
    of the branching-paths broadcast with its BFS parent array.
    Artifacts are built once — usually through {!Cache} — and shared
    by bench iterations, sweep replicas, chaos schedules and
    experiment rows, so per-run cost is algorithm execution, not
    scenario reconstruction.

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

val routes :
  t -> chaos:Hardware.Fault_plan.t option -> Core.Branching_paths.compiled option
(** The branching-paths route table and BFS parent array,
    [Core.Branching_paths.compile_routes (graph t) ~root:0]: element
    [v] of the table holds the compiled copy-all headers of
    [Labels.paths_from (labelling t) v] in path order, built without
    the tree or the labelling, once per artifact.  A fault plan does
    not invalidate it: a broadcast's routes are a function of the
    root's view when it starts, which a plan does not change, and a
    header over a failed link is dropped at that link like any other
    packet.

    [~chaos] is ignored and the option is always [Some]: both are shims
    kept for the benchmark's callers, to go with its next revision. *)
