(* Tests for Core.Labels: the Section 3.1 labelling and decomposition. *)

module L = Core.Labels
module T = Netgraph.Tree
module B = Netgraph.Builders
module S = Netgraph.Spanning

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let tree_of graph root = S.bfs_tree graph ~root

let test_leaf_label_zero () =
  let l = L.compute (T.of_parents ~root:0 ~parents:[]) in
  check_int "singleton label" 0 (L.max_label l)

let test_path_labels () =
  (* a path is one chain: all labels 0 *)
  let l = L.compute (tree_of (B.path 8) 0) in
  List.iter (fun v -> check_int "path label 0" 0 (L.label l v))
    (T.nodes (L.tree l));
  check_int "one path" 1 (List.length (L.paths l))

let test_binary_tree_labels () =
  (* complete binary tree of depth d: root label d (Strahler) *)
  List.iter
    (fun d ->
      let l = L.compute (tree_of (B.complete_binary_tree ~depth:d) 0) in
      check_int "root label = depth" d (L.max_label l))
    [ 0; 1; 2; 3; 4; 5 ]

let test_star_labels () =
  (* root with k >= 2 leaf children: two children share max label 0 *)
  let l = L.compute (tree_of (B.star 5) 0) in
  check_int "star root label" 1 (L.max_label l)

let test_lemma_1 () =
  (* a node of label l has at most one child of label l *)
  let rng = Sim.Rng.create ~seed:4 in
  for _ = 1 to 30 do
    let g = B.random_tree rng ~n:60 in
    let t = tree_of g 0 in
    let l = L.compute t in
    List.iter
      (fun v ->
        let same =
          List.filter (fun c -> L.label l c = L.label l v) (T.children t v)
        in
        check_bool "Lemma 1" true (List.length same <= 1))
      (T.nodes t)
  done

let test_theorem_2_label_bound () =
  (* root label <= log2 n on every tree *)
  let rng = Sim.Rng.create ~seed:8 in
  for _ = 1 to 30 do
    let g = B.random_tree rng ~n:100 in
    let l = L.compute (tree_of g 0) in
    check_bool "max label <= log2 n" true
      (float_of_int (L.max_label l) <= Sim.Stats.log2 100.0 +. 1e-9)
  done

let test_label_bound_tight_on_binary () =
  (* the complete binary tree achieves label = log2 (n+1) - 1 *)
  let n = B.binary_tree_nodes ~depth:6 in
  let l = L.compute (tree_of (B.complete_binary_tree ~depth:6) 0) in
  check_int "tight" 6 (L.max_label l);
  check_bool "close to log2 n" true
    (float_of_int (L.max_label l) > Sim.Stats.log2 (float_of_int n) -. 1.0)

let decomposition_invariants t l =
  let paths = L.paths l in
  (* every path has >= 2 nodes and constant edge label *)
  List.iter
    (fun p ->
      check_bool "path length" true (List.length p >= 2);
      match p with
      | _ :: rest ->
          let labels = List.map (L.label l) rest in
          List.iter (fun x -> check_int "monochromatic" (List.hd labels) x) labels
      | [] -> Alcotest.fail "empty path")
    paths;
  (* every tree edge in exactly one path *)
  let edge_count = Hashtbl.create 64 in
  List.iter
    (fun p ->
      let rec walk = function
        | u :: (v :: _ as rest) ->
            let key = (u, v) in
            Hashtbl.replace edge_count key
              (1 + Option.value ~default:0 (Hashtbl.find_opt edge_count key));
            walk rest
        | _ -> ()
      in
      walk p)
    paths;
  check_int "edges covered once" (T.size t - 1) (Hashtbl.length edge_count);
  Hashtbl.iter (fun _ c -> check_int "exactly once" 1 c) edge_count;
  (* every non-root node is a non-head member of exactly one path *)
  let member_count = Hashtbl.create 64 in
  List.iter
    (fun p ->
      List.iteri
        (fun i v ->
          if i > 0 then
            Hashtbl.replace member_count v
              (1 + Option.value ~default:0 (Hashtbl.find_opt member_count v)))
        p)
    paths;
  List.iter
    (fun v ->
      if v <> T.root t then check_int "one copy per node" 1
          (Option.value ~default:0 (Hashtbl.find_opt member_count v)))
    (T.nodes t)

let test_decomposition_invariants () =
  let rng = Sim.Rng.create ~seed:21 in
  for _ = 1 to 20 do
    let g = B.random_tree rng ~n:50 in
    let t = tree_of g 0 in
    decomposition_invariants t (L.compute t)
  done

let test_paths_from_distinct_first_links () =
  (* paths starting at one node leave through distinct children, so the
     multicast primitive can ship them in one activation *)
  let rng = Sim.Rng.create ~seed:33 in
  for _ = 1 to 20 do
    let g = B.random_tree rng ~n:50 in
    let t = tree_of g 0 in
    let l = L.compute t in
    List.iter
      (fun v ->
        let firsts =
          List.filter_map
            (fun p -> match p with _ :: second :: _ -> Some second | _ -> None)
            (L.paths_from l v)
        in
        check_bool "distinct" true
          (List.length firsts = List.length (List.sort_uniq compare firsts));
        check_bool "within degree" true
          (List.length firsts <= List.length (T.children t v)))
      (T.nodes t)
  done

let test_path_depth_bound () =
  (* Theorem 2: a broadcast crosses at most 1 + log2 n path generations *)
  let rng = Sim.Rng.create ~seed:55 in
  for _ = 1 to 20 do
    let g = B.random_tree rng ~n:80 in
    let t = tree_of g 0 in
    let l = L.compute t in
    check_bool "max path depth <= 1 + log2 n" true
      (float_of_int (L.max_path_depth l) <= 1.0 +. Sim.Stats.log2 80.0)
  done

let test_path_depth_values () =
  let l = L.compute (tree_of (B.star 5) 0) in
  check_int "root depth 0" 0 (L.depth_in_paths l 0);
  check_int "leaf depth 1" 1 (L.depth_in_paths l 3)

let test_path_label () =
  let l = L.compute (tree_of (B.path 4) 0) in
  match L.paths l with
  | [ p ] -> check_int "chain label" 0 (L.path_label l p)
  | _ -> Alcotest.fail "path graph must decompose into one chain"

let test_caterpillar_decomposition () =
  let g = B.caterpillar ~spine:5 ~legs:1 in
  let t = tree_of g 0 in
  let l = L.compute t in
  decomposition_invariants t l;
  check_bool "caterpillar label small" true (L.max_label l <= 2)

(* exhaustive: every labelled tree on 6 nodes via Pruefer sequences *)
let test_exhaustive_pruefer_trees () =
  let n = 6 in
  let tree_of_pruefer seq =
    (* simple O(n^2) decoding: match the smallest current leaf with
       each sequence entry in turn (degree 0 marks consumed nodes) *)
    let degree = Array.make n 1 in
    List.iter (fun v -> degree.(v) <- degree.(v) + 1) seq;
    let edges = ref [] in
    let smallest_leaf () =
      let rec scan i = if degree.(i) = 1 then i else scan (i + 1) in
      scan 0
    in
    List.iter
      (fun v ->
        let leaf = smallest_leaf () in
        edges := (leaf, v) :: !edges;
        degree.(leaf) <- 0;
        degree.(v) <- degree.(v) - 1)
      seq;
    (match List.filter (fun v -> degree.(v) = 1) (List.init n Fun.id) with
    | [ a; b ] -> edges := (a, b) :: !edges
    | _ -> assert false);
    Netgraph.Graph.of_edges ~n !edges
  in
  let count = ref 0 in
  let total = int_of_float (float_of_int n ** float_of_int (n - 2)) in
  for code = 0 to total - 1 do
    let rec digits c k acc =
      if k = 0 then acc else digits (c / n) (k - 1) ((c mod n) :: acc)
    in
    let g = tree_of_pruefer (digits code (n - 2) []) in
    let t = tree_of g 0 in
    let l = L.compute t in
    incr count;
    (* Lemma 1 + Theorem 2 on every labelled tree on 6 nodes *)
    List.iter
      (fun v ->
        let same =
          List.filter (fun c -> L.label l c = L.label l v) (T.children t v)
        in
        check_bool "Lemma 1" true (List.length same <= 1))
      (T.nodes t);
    check_bool "Theorem 2" true
      (float_of_int (L.max_label l) <= Sim.Stats.log2 6.0 +. 1e-9);
    let covered =
      List.fold_left (fun acc p -> acc + List.length p - 1) 0 (L.paths l)
    in
    check_int "partition" 5 covered
  done;
  check_int "6^4 labelled trees" 1296 !count

(* -- parity with the original recursive implementation ----------------- *)

(* The pre-optimisation Labels.compute, kept verbatim as an executable
   specification: the iterative rewrite must reproduce its labels, its
   path list (same order, same node order inside each path), its
   per-head grouping and its depths, byte for byte.  Recursion depth
   here is the tree height, so the reference only runs on the modest
   trees below — the iterative version owes it nothing at scale. *)
module Reference = struct
  type r = {
    labels : (int, int) Hashtbl.t;
    all_paths : int list list;
    by_head : (int, int list list) Hashtbl.t;
    path_depth : (int, int) Hashtbl.t;
  }

  let compute tree =
    let labels = Hashtbl.create (T.size tree) in
    let rec assign v =
      let kid_labels = List.map assign (T.children tree v) in
      let l =
        match List.sort (fun a b -> compare b a) kid_labels with
        | [] -> 0
        | [ top ] -> top
        | top :: second :: _ -> if top = second then top + 1 else top
      in
      Hashtbl.replace labels v l;
      l
    in
    ignore (assign (T.root tree));
    let lbl v = Hashtbl.find labels v in
    let chain_of u c =
      let rec extend v acc =
        match List.filter (fun k -> lbl k = lbl c) (T.children tree v) with
        | [] -> List.rev (v :: acc)
        | [ k ] -> extend k (v :: acc)
        | _ :: _ :: _ -> assert false
      in
      u :: extend c []
    in
    let all_paths = ref [] in
    let by_head = Hashtbl.create 16 in
    List.iter
      (fun u ->
        let heads_here =
          List.filter
            (fun c -> u = T.root tree || lbl u <> lbl c)
            (T.children tree u)
        in
        let chains = List.map (chain_of u) heads_here in
        if chains <> [] then Hashtbl.replace by_head u chains;
        all_paths := List.rev_append chains !all_paths)
      (T.nodes tree);
    let all_paths = List.rev !all_paths in
    let path_depth = Hashtbl.create (T.size tree) in
    Hashtbl.replace path_depth (T.root tree) 0;
    let rec propagate u =
      let du = Hashtbl.find path_depth u in
      let chains = Option.value ~default:[] (Hashtbl.find_opt by_head u) in
      List.iter
        (fun chain ->
          List.iter
            (fun v ->
              if v <> u then begin
                Hashtbl.replace path_depth v (du + 1);
                propagate v
              end)
            chain)
        chains
    in
    propagate (T.root tree);
    { labels; all_paths; by_head; path_depth }
end

let parity_check t =
  let l = L.compute t in
  let r = Reference.compute t in
  List.for_all
    (fun v ->
      L.label l v = Hashtbl.find r.Reference.labels v
      && L.depth_in_paths l v = Hashtbl.find r.Reference.path_depth v
      && L.paths_from l v
         = Option.value ~default:[] (Hashtbl.find_opt r.Reference.by_head v))
    (T.nodes t)
  && L.paths l = r.Reference.all_paths
  && L.max_label l = Hashtbl.find r.Reference.labels (T.root t)
  && L.max_path_depth l
     = Hashtbl.fold (fun _ d acc -> max d acc) r.Reference.path_depth 0

let qcheck_parity_random =
  QCheck.Test.make ~name:"iterative compute == recursive reference" ~count:200
    QCheck.(pair (int_range 1 120) (int_range 0 1000))
    (fun (n, salt) ->
      let rng = Sim.Rng.create ~seed:((n * 1021) + salt) in
      parity_check (tree_of (B.random_tree rng ~n) 0))

let test_parity_structured () =
  (* the tree shapes with distinctive decompositions, plus BFS trees of
     general graphs (non-trivial sibling orders) *)
  let graphs =
    [
      B.path 1; B.path 2; B.path 17; B.star 9; B.complete_binary_tree ~depth:5;
      B.caterpillar ~spine:6 ~legs:2; B.ring 12; B.complete 9;
      B.grid ~rows:4 ~cols:5;
      B.random_connected (Sim.Rng.create ~seed:42) ~n:64 ~extra_edges:32;
    ]
  in
  List.iter
    (fun g -> check_bool "parity" true (parity_check (tree_of g 0)))
    graphs

let test_deep_path_stack_safety () =
  (* the shape that overflowed the recursive implementation: one chain
     of 200k nodes, height = n.  Must complete and decompose into a
     single label-0 path of full depth 1. *)
  let n = 200_000 in
  let l = L.compute (tree_of (B.path n) 0) in
  check_int "single chain" 1 (List.length (L.paths l));
  check_int "label 0" 0 (L.max_label l);
  check_int "path depth 1" 1 (L.max_path_depth l);
  check_int "deep leaf depth" 1 (L.depth_in_paths l (n - 1))

let test_deep_bfs_tree_stack_safety () =
  (* same, through a BFS tree of a big random graph rather than an
     explicit path: exercises preorder, labelling and depth passes on a
     tree nobody hand-shaped *)
  let n = 100_000 in
  let g = B.random_connected (Sim.Rng.create ~seed:9) ~n ~extra_edges:(n / 2) in
  let l = L.compute (tree_of g 0) in
  check_bool "Theorem 2 at scale" true
    (float_of_int (L.max_label l) <= Sim.Stats.log2 (float_of_int n) +. 1e-9);
  let covered =
    List.fold_left (fun acc p -> acc + List.length p - 1) 0 (L.paths l)
  in
  check_int "partition at scale" (n - 1) covered

let qcheck_invariants_random =
  QCheck.Test.make ~name:"decomposition invariants on random trees" ~count:100
    QCheck.(int_range 2 60)
    (fun n ->
      let rng = Sim.Rng.create ~seed:(n * 17) in
      let g = B.random_tree rng ~n in
      let t = tree_of g 0 in
      let l = L.compute t in
      (* edge partition sizes must sum to n-1 *)
      let total_edges =
        List.fold_left (fun acc p -> acc + List.length p - 1) 0 (L.paths l)
      in
      total_edges = n - 1
      && float_of_int (L.max_label l) <= Sim.Stats.log2 (float_of_int n) +. 1e-9)

let suite =
  [
    Alcotest.test_case "singleton label" `Quick test_leaf_label_zero;
    Alcotest.test_case "path labels" `Quick test_path_labels;
    Alcotest.test_case "binary tree labels" `Quick test_binary_tree_labels;
    Alcotest.test_case "star labels" `Quick test_star_labels;
    Alcotest.test_case "Lemma 1" `Quick test_lemma_1;
    Alcotest.test_case "Theorem 2 label bound" `Quick test_theorem_2_label_bound;
    Alcotest.test_case "bound tight on binary tree" `Quick test_label_bound_tight_on_binary;
    Alcotest.test_case "decomposition invariants" `Quick test_decomposition_invariants;
    Alcotest.test_case "distinct first links" `Quick test_paths_from_distinct_first_links;
    Alcotest.test_case "path depth bound" `Quick test_path_depth_bound;
    Alcotest.test_case "path depth values" `Quick test_path_depth_values;
    Alcotest.test_case "path label" `Quick test_path_label;
    Alcotest.test_case "caterpillar decomposition" `Quick test_caterpillar_decomposition;
    Alcotest.test_case "exhaustive Pruefer trees n=6" `Slow test_exhaustive_pruefer_trees;
    Alcotest.test_case "parity on structured trees" `Quick test_parity_structured;
    Alcotest.test_case "deep path is stack-safe" `Quick test_deep_path_stack_safety;
    Alcotest.test_case "deep BFS tree is stack-safe" `Quick test_deep_bfs_tree_stack_safety;
    QCheck_alcotest.to_alcotest qcheck_parity_random;
    QCheck_alcotest.to_alcotest qcheck_invariants_random;
  ]
