module Tree = Netgraph.Tree

(* Iterative, array-based labelling and path decomposition.

   [compute] runs linear sweeps over the tree's preorder [order],
   indexed by preorder position: (1) each node's parent as a position;
   (2) labels in reverse preorder (parents follow their whole subtree,
   so descending index order is a valid post-order), each pushed into
   its parent's two largest child labels; (3) the unique same-label
   child per node (Lemma 1) giving O(1) chain extension; (4) chains,
   grouped by head, and path depths in preorder.  Siblings sit in
   increasing id order in the preorder, so increasing position is
   Tree.children's order.  O(n) time and memory, stack-safe at any
   height — the outputs are byte-identical to the original recursive
   definition, which the parity suite in test/suite_labels.ml checks
   against a verbatim copy of it. *)

type t = {
  tree : Tree.t;
  index : int array;  (* node id -> preorder position, -1 off the tree *)
  labels : int array;  (* by preorder position *)
  depths : int array;  (* path-generation depth, by preorder position *)
  all_paths : int list list;
  by_head : int list list array;  (* the chains a node heads, by position *)
  root_label : int;
  max_depth : int;
}

let tree t = t.tree

let position t v = if v >= 0 && v < Array.length t.index then t.index.(v) else -1

let label t v =
  match position t v with
  | -1 -> invalid_arg (Printf.sprintf "Labels.label: node %d not in tree" v)
  | i -> t.labels.(i)

let compute tree =
  let order = Array.of_list (Tree.nodes tree) in
  let n = Array.length order in
  let index = Array.make (Array.fold_left max 0 order + 1) (-1) in
  Array.iteri (fun i v -> index.(v) <- i) order;
  (* (1) parents as positions *)
  let parent = Array.make n (-1) in
  for i = 1 to n - 1 do
    parent.(i) <- index.(Option.get (Tree.parent tree order.(i)))
  done;
  (* (2) labels, leaves-up: a node gets top+1 when >= 2 children carry
     the maximal child label, else top (0 at a leaf) *)
  let labels = Array.make n 0
  and top = Array.make n (-1)
  and second = Array.make n (-1) in
  for i = n - 1 downto 0 do
    let t = top.(i) in
    let l = if t < 0 then 0 else if t = second.(i) then t + 1 else t in
    labels.(i) <- l;
    let p = parent.(i) in
    if p >= 0 then
      if l > top.(p) then begin
        second.(p) <- top.(p);
        top.(p) <- l
      end
      else if l > second.(p) then second.(p) <- l
  done;
  (* (3) the same-label child continuing a chain — unique by Lemma 1;
     every other child, and every child of the root, starts a chain *)
  let starts c = parent.(c) = 0 || labels.(c) <> labels.(parent.(c)) in
  let chain_next = Array.make n (-1) in
  for c = 1 to n - 1 do
    if not (starts c) then begin
      (* two same-label children would contradict Lemma 1 *)
      assert (chain_next.(parent.(c)) = -1);
      chain_next.(parent.(c)) <- c
    end
  done;
  (* (4a) chains by head.  Each is read upwards from its last node, so
     consing yields it in order; consing in descending [c] keeps each
     head's chains in child order. *)
  let rec last j = if chain_next.(j) >= 0 then last chain_next.(j) else j in
  let rec climb h acc j =
    if j = h then order.(h) :: acc else climb h (order.(j) :: acc) parent.(j)
  in
  let by_head = Array.make n [] in
  for c = n - 1 downto 1 do
    if starts c then begin
      let h = parent.(c) in
      by_head.(h) <- climb h [] (last c) :: by_head.(h)
    end
  done;
  let all_paths =
    Array.fold_right (fun chains acc -> chains @ acc) by_head []
  in
  (* (4b) path depth: 0 at the root; a chain's start lies one path
     deeper than its head, and the rest of a chain as deep as its
     start.  Parents precede children in preorder. *)
  let depths = Array.make n 0 in
  for c = 1 to n - 1 do
    let p = parent.(c) in
    depths.(c) <- (if starts c then depths.(p) + 1 else depths.(p))
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
let paths_from t v =
  match position t v with -1 -> [] | i -> t.by_head.(i)

let path_label t = function
  | _ :: second :: _ -> label t second
  | _ -> invalid_arg "Labels.path_label: a path has at least two nodes"

let depth_in_paths t v =
  match position t v with
  | -1 ->
      invalid_arg (Printf.sprintf "Labels.depth_in_paths: node %d not in tree" v)
  | i -> t.depths.(i)

let max_path_depth t = t.max_depth
