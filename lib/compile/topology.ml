module Graph = Netgraph.Graph
module Tree = Netgraph.Tree
module Labels = Core.Labels
module Anr = Hardware.Anr

(* A compiled-topology artifact: the CSR graph plus the derived setup
   products every scenario used to rebuild per run — BFS tree, Section
   3.1 labelling/path decomposition, and the compiled ANR route table
   of the branching-paths broadcast.  The derived fields fill lazily
   under a per-artifact lock, so concurrent sweep replicas sharing one
   artifact each pay at most one build. *)

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
  mutable routes : Anr.route array array option;
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

let routes t ~chaos =
  match chaos with
  | Some _ ->
      (* a fault plan mutates the live topology; compiled routes from
         the pristine graph must not be replayed across the mutation,
         so an armed plan invalidates them — callers fall back to
         building headers from walks at send time *)
      None
  | None -> Some (locked t (fun () -> routes_u t))
