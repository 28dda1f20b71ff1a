(* Tests for Hardware.Anr: header construction and replay. *)

module A = Hardware.Anr
module B = Netgraph.Builders

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_ints = Alcotest.(check (list int))

let test_of_walk_simple () =
  let g = B.path 4 in
  let route = A.of_walk g [ 0; 1; 2; 3 ] in
  check_int "3 hops" 3 (A.hops route);
  check_int "4 elements (incl NCU)" 4 (A.length route);
  check_ints "replay" [ 0; 1; 2; 3 ] (A.walk_of g ~src:0 route)

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
  check_ints "replay of walk" [ 0; 1; 2; 1; 0; 1 ] (A.walk_of g ~src:0 route);
  check_int "5 hops" 5 (A.hops route)

let test_of_walk_marked_first_visits () =
  let g = B.path 3 in
  (* depth-first tour 0 1 2 1 0, copy on first visits only *)
  let tour = [ 0; 1; 2; 1; 0 ] in
  let marked = Core.Walks.mark_first_visits tour in
  let route = A.of_walk_marked g marked in
  (* copies at 1 (first visit) and 2... 2's first visit is mid-walk *)
  check_ints "copies" [ 1; 2; 0 ] (A.copy_targets g ~src:0 route)

let test_concat () =
  let g = B.path 5 in
  let a = A.of_walk g [ 0; 1; 2 ] in
  let b = A.of_walk g [ 2; 3; 4 ] in
  let joined = A.concat a b in
  check_ints "spliced walk" [ 0; 1; 2; 3; 4 ] (A.walk_of g ~src:0 joined)

let test_concat_requires_ncu_tail () =
  let g = B.path 3 in
  check_bool "raises" true
    (try ignore (A.concat [] (A.of_walk g [ 0; 1 ])); false
     with Invalid_argument _ -> true)

let test_deliver_element () =
  check_bool "deliver shape" true (A.deliver = { A.link = 0; copy = false })

let test_encoded_bits_grows_with_length () =
  let g = B.path 10 in
  let short = A.of_walk g [ 0; 1 ] in
  let long = A.of_walk g (List.init 10 Fun.id) in
  check_bool "longer header, more bits" true
    (A.encoded_bits g long > A.encoded_bits g short)

let test_walk_of_dangling () =
  let g = B.path 3 in
  check_bool "raises" true
    (try ignore (A.walk_of g ~src:0 [ { A.link = 9; copy = false } ]); false
     with Invalid_argument _ -> true)

let test_encode_decode_roundtrip () =
  let g = B.grid ~rows:3 ~cols:3 in
  let route = A.of_walk ~copy_at:(fun v -> v mod 2 = 0) g [ 0; 1; 2; 5; 8 ] in
  let bits = A.encode g route in
  check_int "bit length" (A.encoded_bits g route) (String.length bits);
  check_bool "roundtrip" true (A.decode g bits = route)

let test_encode_binary_alphabet () =
  let g = B.path 3 in
  let bits = A.encode g (A.of_walk g [ 0; 1; 2 ]) in
  String.iter (fun c -> check_bool "binary" true (c = '0' || c = '1')) bits

let test_decode_rejects_garbage () =
  let g = B.path 3 in
  check_bool "bad char" true
    (try ignore (A.decode g "0x"); false with Invalid_argument _ -> true);
  check_bool "bad length" true
    (try ignore (A.decode g "0"); false with Invalid_argument _ -> true)

let test_id_bits_scales_with_degree () =
  check_bool "wider switches need wider ids" true
    (A.id_bits (B.star 64) > A.id_bits (B.path 4))

let qcheck_encode_roundtrip =
  QCheck.Test.make ~name:"encode/decode roundtrip on random routes" ~count:100
    QCheck.(int_range 2 25)
    (fun n ->
      let rng = Sim.Rng.create ~seed:(n * 97) in
      let g = B.random_connected rng ~n ~extra_edges:n in
      let tree = Netgraph.Spanning.bfs_tree g ~root:0 in
      let dst = Sim.Rng.int rng n in
      let walk = Netgraph.Tree.path_from_root tree dst in
      let route = A.of_walk ~copy_at:(fun _ -> Sim.Rng.bool rng) g walk in
      A.decode g (A.encode g route) = route)

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
      A.walk_of g ~src:0 route = walk)

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
           (List.init (A.route_length compiled) (A.route_elem compiled))
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
    Alcotest.test_case "concat" `Quick test_concat;
    Alcotest.test_case "concat requires NCU tail" `Quick test_concat_requires_ncu_tail;
    Alcotest.test_case "deliver element" `Quick test_deliver_element;
    Alcotest.test_case "encoded bits" `Quick test_encoded_bits_grows_with_length;
    Alcotest.test_case "dangling link id" `Quick test_walk_of_dangling;
    Alcotest.test_case "encode/decode roundtrip" `Quick test_encode_decode_roundtrip;
    Alcotest.test_case "encode binary alphabet" `Quick test_encode_binary_alphabet;
    Alcotest.test_case "decode rejects garbage" `Quick test_decode_rejects_garbage;
    Alcotest.test_case "id bits scale with degree" `Quick test_id_bits_scales_with_degree;
    QCheck_alcotest.to_alcotest qcheck_encode_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_of_walk_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_compile_walk_marked_arr;
  ]
