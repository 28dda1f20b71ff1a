module Tree = Netgraph.Tree

(* Iterative, array-based labelling and path decomposition.

   [compute] runs four linear sweeps over a compact preorder index of
   the tree: (1) preorder enumeration via an explicit worklist, (2)
   labels in reverse preorder (parents follow their whole subtree, so
   descending index order is a valid post-order), (3) the unique
   same-label child per node (Lemma 1) giving O(1) chain extension,
   (4) chains and path depths in preorder of heads.  O(n) time and
   memory, stack-safe at any height — the outputs are byte-identical
   to the original recursive definition, which the parity suite in
   test/suite_labels.ml checks against a verbatim copy of it. *)

type t = {
  tree : Tree.t;
  index : (int, int) Hashtbl.t;  (* node id -> preorder index *)
  labels : int array;  (* by preorder index *)
  depths : int array;  (* path-generation depth, by preorder index *)
  all_paths : int list list;
  by_head : (int, int list list) Hashtbl.t;
  root_label : int;
  max_depth : int;
}

let tree t = t.tree

let label t v =
  match Hashtbl.find_opt t.index v with
  | Some i -> t.labels.(i)
  | None -> invalid_arg (Printf.sprintf "Labels.label: node %d not in tree" v)

let compute tree =
  let n = Tree.size tree in
  let root = Tree.root tree in
  (* (1) preorder enumeration; siblings keep Tree.children's ascending
     id order, so index order below reproduces Tree.nodes exactly *)
  let order = Array.make n root in
  let index = Hashtbl.create n in
  let parent = Array.make n (-1) in
  let count = ref 0 in
  let rec fill = function
    | [] -> ()
    | (v, pi) :: rest ->
        let i = !count in
        incr count;
        order.(i) <- v;
        Hashtbl.replace index v i;
        parent.(i) <- pi;
        fill (List.map (fun c -> (c, i)) (Tree.children tree v) @ rest)
  in
  fill [ (root, -1) ];
  (* children as indices; sibling preorder indices are assigned in push
     order, so consing downward restores ascending id order *)
  let kids = Array.make n [] in
  for i = n - 1 downto 1 do
    kids.(parent.(i)) <- i :: kids.(parent.(i))
  done;
  (* (2) labels, leaves-up: a node gets top+1 when >= 2 children carry
     the maximal child label, else top (0 at a leaf) *)
  let labels = Array.make n 0 in
  for i = n - 1 downto 0 do
    let top = ref (-1) and second = ref (-1) in
    List.iter
      (fun c ->
        let l = labels.(c) in
        if l > !top then begin
          second := !top;
          top := l
        end
        else if l > !second then second := l)
      kids.(i);
    labels.(i) <-
      (if !top < 0 then 0 else if !top = !second then !top + 1 else !top)
  done;
  (* (3) the same-label child continuing a chain — unique by Lemma 1 *)
  let chain_next = Array.make n (-1) in
  for i = 1 to n - 1 do
    let p = parent.(i) in
    if labels.(i) = labels.(p) then begin
      (* two same-label children would contradict Lemma 1 *)
      assert (chain_next.(p) = -1);
      chain_next.(p) <- i
    end
  done;
  (* (4a) chains: head u starts one chain per child whose label does
     not continue u's own chain; extension is chain_next hops *)
  let chain_of i c =
    let rec follow acc j =
      let acc = order.(j) :: acc in
      if chain_next.(j) >= 0 then follow acc chain_next.(j) else List.rev acc
    in
    order.(i) :: follow [] c
  in
  let by_head = Hashtbl.create 16 in
  let rev_paths = ref [] in
  for i = 0 to n - 1 do
    let li = labels.(i) in
    let chains =
      List.filter_map
        (fun c -> if i = 0 || labels.(c) <> li then Some (chain_of i c) else None)
        kids.(i)
    in
    if chains <> [] then Hashtbl.replace by_head order.(i) chains;
    List.iter (fun chain -> rev_paths := chain :: !rev_paths) chains
  done;
  let all_paths = List.rev !rev_paths in
  (* (4b) path depth: the root has depth 0; every non-head member of a
     chain has (head's depth + 1).  A head is the root or a non-head
     member of a chain headed strictly earlier in preorder, so one
     ascending sweep sees every head's depth before its chains. *)
  let depths = Array.make n (-1) in
  depths.(0) <- 0;
  for i = 0 to n - 1 do
    match Hashtbl.find_opt by_head order.(i) with
    | None -> ()
    | Some chains ->
        assert (depths.(i) >= 0);
        let d = depths.(i) + 1 in
        List.iter
          (fun chain ->
            List.iter
              (fun v ->
                let j = Hashtbl.find index v in
                if j <> i then depths.(j) <- d)
              chain)
          chains
  done;
  let max_depth = Array.fold_left max 0 depths in
  {
    tree;
    index;
    labels;
    depths;
    all_paths;
    by_head;
    root_label = labels.(0);
    max_depth;
  }

let max_label t = t.root_label
let paths t = t.all_paths
let paths_from t v = Option.value ~default:[] (Hashtbl.find_opt t.by_head v)

let path_label t = function
  | _ :: second :: _ -> label t second
  | _ -> invalid_arg "Labels.path_label: a path has at least two nodes"

let depth_in_paths t v =
  match Hashtbl.find_opt t.index v with
  | Some i -> t.depths.(i)
  | None ->
      invalid_arg (Printf.sprintf "Labels.depth_in_paths: node %d not in tree" v)

let max_path_depth t = t.max_depth
