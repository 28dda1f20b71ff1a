module Graph = Netgraph.Graph
module Tree = Netgraph.Tree
module Labels = Core.Labels

(* A compiled-topology artifact: the CSR graph plus the derived setup
   products every scenario used to rebuild per run — BFS tree, Section
   3.1 labelling/path decomposition, and the compiled ANR route table
   of the branching-paths broadcast with its BFS parent array.  The
   derived fields fill lazily under a per-artifact lock, so concurrent
   sweep replicas sharing one artifact each pay at most one build. *)

type key = {
  family : string;  (* builder family, e.g. "random-connected" *)
  n : int;
  seed : int;  (* 0 when the family is deterministic *)
  index : int;  (* replica / schedule index; 0 outside sweeps *)
  extra : int;  (* family-specific: extra_edges, dim, ... *)
}

type t = {
  key : key;
  graph : Graph.t;
  lock : Mutex.t;
  mutable tree : Tree.t option;
  mutable labelling : Labels.t option;
  mutable routes : Core.Branching_paths.compiled option;
}

let create ~key graph =
  {
    key;
    graph;
    lock = Mutex.create ();
    tree = None;
    labelling = None;
    routes = None;
  }

let key t = t.key
let graph t = t.graph

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* unlocked fills — only called with t.lock held *)
let tree_u t =
  match t.tree with
  | Some x -> x
  | None ->
      let x = Netgraph.Spanning.bfs_tree t.graph ~root:0 in
      t.tree <- Some x;
      x

let labelling_u t =
  match t.labelling with
  | Some x -> x
  | None ->
      let x = Labels.compute (tree_u t) in
      t.labelling <- Some x;
      x

let routes_u t =
  match t.routes with
  | Some x -> x
  | None ->
      let x = Core.Branching_paths.compile_routes t.graph ~root:0 in
      t.routes <- Some x;
      x

let tree t = locked t (fun () -> tree_u t)
let labelling t = locked t (fun () -> labelling_u t)

(* [~chaos] is ignored: a broadcast's routes are a function of the
   root's view when it starts, which a fault plan does not change.  It
   stays, with the option, until the benchmark stops passing it. *)
let routes t ~chaos:_ = Some (locked t (fun () -> routes_u t))
