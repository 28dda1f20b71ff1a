(* Tests for Hardware.Anr: header construction and replay. *)

module A = Hardware.Anr
module B = Netgraph.Builders

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_ints = Alcotest.(check (list int))

(* The node walk a header visits when injected at [src]: the replay
   that checks a header against the walk it was built from. *)
let walk_of g ~src t =
  let rec follow u acc = function
    | [] | { A.link = 0; _ } :: _ -> List.rev (u :: acc)
    | { A.link; _ } :: rest ->
        follow (Netgraph.Graph.peer_via g u link) (u :: acc) rest
  in
  follow src [] t

let test_of_walk_simple () =
  let g = B.path 4 in
  let route = A.of_walk g [ 0; 1; 2; 3 ] in
  check_int "3 hops" 3 (A.hops route);
  check_int "4 elements (incl NCU)" 4 (A.length route);
  check_ints "replay" [ 0; 1; 2; 3 ] (walk_of g ~src:0 route)

let test_of_walk_single_node () =
  let g = B.path 2 in
  check_int "empty route" 0 (A.length (A.of_walk g [ 0 ]))

let test_of_walk_nonadjacent_rejected () =
  let g = B.path 4 in
  check_bool "raises" true
    (try ignore (A.of_walk g [ 0; 2 ]); false with Not_found | Invalid_argument _ -> true)

let test_of_walk_empty_rejected () =
  let g = B.path 2 in
  check_bool "raises" true
    (try ignore (A.of_walk g []); false with Invalid_argument _ -> true)

let test_copy_targets_all () =
  let g = B.path 5 in
  let route = A.of_walk ~copy_at:(fun _ -> true) g [ 0; 1; 2; 3; 4 ] in
  check_ints "copies at intermediates + terminal" [ 1; 2; 3; 4 ]
    (A.copy_targets g ~src:0 route)

let test_copy_targets_none () =
  let g = B.path 5 in
  let route = A.of_walk g [ 0; 1; 2; 3; 4 ] in
  check_ints "terminal only" [ 4 ] (A.copy_targets g ~src:0 route)

let test_copy_targets_selective () =
  let g = B.path 5 in
  let route = A.of_walk ~copy_at:(fun v -> v = 2) g [ 0; 1; 2; 3; 4 ] in
  check_ints "node 2 and terminal" [ 2; 4 ] (A.copy_targets g ~src:0 route)

let test_injector_never_copies () =
  let g = B.ring 4 in
  let route = A.of_walk ~copy_at:(fun _ -> true) g [ 2; 3; 0 ] in
  check_ints "2 not copied" [ 3; 0 ] (A.copy_targets g ~src:2 route)

let test_walk_revisits () =
  let g = B.path 3 in
  let route = A.of_walk g [ 0; 1; 2; 1; 0; 1 ] in
  check_ints "replay of walk" [ 0; 1; 2; 1; 0; 1 ] (walk_of g ~src:0 route);
  check_int "5 hops" 5 (A.hops route)

let test_of_walk_marked_first_visits () =
  let g = B.path 3 in
  (* depth-first tour 0 1 2 1 0, copy on first visits only *)
  let tour = [ 0; 1; 2; 1; 0 ] in
  let marked = Core.Walks.mark_first_visits tour in
  let route = A.of_walk_marked g marked in
  (* copies at 1 (first visit) and 2... 2's first visit is mid-walk *)
  check_ints "copies" [ 1; 2; 0 ] (A.copy_targets g ~src:0 route)

let test_deliver_element () =
  check_bool "deliver shape" true (A.deliver = { A.link = 0; copy = false })

let test_id_bits_scales_with_degree () =
  check_bool "wider switches need wider ids" true
    (A.id_bits (B.star 64) > A.id_bits (B.path 4))

let qcheck_of_walk_roundtrip =
  QCheck.Test.make ~name:"of_walk/walk_of roundtrip on random trees" ~count:200
    QCheck.(int_range 2 30)
    (fun n ->
      let rng = Sim.Rng.create ~seed:(n * 3) in
      let g = B.random_tree rng ~n in
      let tree = Netgraph.Spanning.bfs_tree g ~root:0 in
      let dst = Sim.Rng.int rng n in
      let walk = Netgraph.Tree.path_from_root tree dst in
      let route = A.of_walk g walk in
      walk_of g ~src:0 route = walk)

let qcheck_compile_walk_marked_arr =
  QCheck.Test.make ~name:"packed marked walk compiles like of_walk_marked"
    ~count:200
    QCheck.(pair (int_range 1 30) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Sim.Rng.create ~seed in
      let g = B.random_connected rng ~n ~extra_edges:n in
      let tree = Netgraph.Spanning.bfs_tree g ~root:(Sim.Rng.int rng n) in
      let marked =
        List.map
          (fun v -> (v, Sim.Rng.bool rng))
          (Core.Walks.euler_tour tree)
      in
      let packed =
        Array.of_list
          (List.map (fun (v, f) -> (v lsl 1) lor if f then 1 else 0) marked)
      in
      let compiled = A.compile_walk_marked_arr g packed in
      let expected = A.of_walk_marked g marked in
      A.route_length compiled = A.length expected
      && List.for_all2 ( = )
           (List.init (A.route_length compiled) (fun i ->
                { A.link = A.route_link compiled i; copy = A.route_copy compiled i }))
           expected)

let suite =
  [
    Alcotest.test_case "of_walk simple" `Quick test_of_walk_simple;
    Alcotest.test_case "of_walk single node" `Quick test_of_walk_single_node;
    Alcotest.test_case "non-adjacent rejected" `Quick test_of_walk_nonadjacent_rejected;
    Alcotest.test_case "empty walk rejected" `Quick test_of_walk_empty_rejected;
    Alcotest.test_case "copy targets all" `Quick test_copy_targets_all;
    Alcotest.test_case "copy targets none" `Quick test_copy_targets_none;
    Alcotest.test_case "copy targets selective" `Quick test_copy_targets_selective;
    Alcotest.test_case "injector never copies" `Quick test_injector_never_copies;
    Alcotest.test_case "walk with revisits" `Quick test_walk_revisits;
    Alcotest.test_case "marked first visits" `Quick test_of_walk_marked_first_visits;
    Alcotest.test_case "deliver element" `Quick test_deliver_element;
    Alcotest.test_case "id bits scale with degree" `Quick test_id_bits_scales_with_degree;
    QCheck_alcotest.to_alcotest qcheck_of_walk_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_compile_walk_marked_arr;
  ]
