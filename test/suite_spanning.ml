(* Tests for Netgraph.Spanning. *)

module B = Netgraph.Builders
module S = Netgraph.Spanning
module T = Netgraph.Tree
module Tr = Netgraph.Traversal

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_bfs_tree_spans () =
  let g = B.grid ~rows:4 ~cols:5 in
  let t = S.bfs_tree g ~root:7 in
  check_bool "spans" true (Suite_tree.spans t g)

let test_bfs_tree_min_hop () =
  (* depth in the BFS tree equals the graph distance - the "minimum hop
     paths" requirement of Section 3.1 *)
  let g = B.torus ~rows:4 ~cols:4 in
  let t = S.bfs_tree g ~root:0 in
  let d = Tr.distances g ~root:0 in
  List.iter (fun v -> check_int "min hop depth" d.(v) (T.depth_of t v)) (T.nodes t)

let test_bfs_tree_deterministic () =
  let g = B.random_connected (Sim.Rng.create ~seed:5) ~n:30 ~extra_edges:15 in
  let t1 = S.bfs_tree g ~root:3 and t2 = S.bfs_tree g ~root:3 in
  Alcotest.(check (list (pair int int))) "same tree" (T.edges t1) (T.edges t2)

let test_bfs_tree_component_only () =
  let g = Netgraph.Graph.of_edges ~n:5 [ (0, 1); (1, 2); (3, 4) ] in
  let t = S.bfs_tree g ~root:0 in
  check_int "covers component" 3 (T.size t);
  check_bool "3 excluded" false (List.mem 3 (T.nodes t))

let test_dfs_tree_spans () =
  let g = B.hypercube 4 in
  let t = S.dfs_tree g ~root:0 in
  check_bool "spans" true (Suite_tree.spans t g);
  check_int "size" 16 (T.size t)

let test_dfs_tree_path_is_path () =
  let t = S.dfs_tree (B.path 6) ~root:0 in
  check_int "height = n-1" 5 (T.height t)

let test_random_spanning_tree () =
  let rng = Sim.Rng.create ~seed:123 in
  let g = B.complete 12 in
  let t = S.random_spanning_tree rng g ~root:0 in
  check_bool "spans" true (Suite_tree.spans t g)

let qcheck_bfs_tree_depth_matches_distance =
  QCheck.Test.make ~name:"BFS tree realises graph distances" ~count:100
    QCheck.(int_range 2 40)
    (fun n ->
      let rng = Sim.Rng.create ~seed:(n * 7) in
      let g = B.random_connected rng ~n ~extra_edges:n in
      let t = S.bfs_tree g ~root:0 in
      let d = Tr.distances g ~root:0 in
      List.for_all (fun v -> T.depth_of t v = d.(v)) (T.nodes t))

let suite =
  [
    Alcotest.test_case "bfs tree spans" `Quick test_bfs_tree_spans;
    Alcotest.test_case "bfs tree min-hop" `Quick test_bfs_tree_min_hop;
    Alcotest.test_case "bfs tree deterministic" `Quick test_bfs_tree_deterministic;
    Alcotest.test_case "bfs tree component only" `Quick test_bfs_tree_component_only;
    Alcotest.test_case "dfs tree spans" `Quick test_dfs_tree_spans;
    Alcotest.test_case "dfs tree of path" `Quick test_dfs_tree_path_is_path;
    Alcotest.test_case "random spanning tree" `Quick test_random_spanning_tree;
    QCheck_alcotest.to_alcotest qcheck_bfs_tree_depth_matches_distance;
  ]
