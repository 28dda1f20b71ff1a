(* Tests for Hardware.Anr: header construction and replay. *)

module A = Hardware.Anr
module B = Netgraph.Builders
module G = Netgraph.Graph

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_ints = Alcotest.(check (list int))

(* The header as a list of elements, built the direct way: the
   reference the packed route builders are checked against, and the
   form the network suites write hand-made (and malformed) headers
   in. *)
module Ref = struct
  type elem = { link : int; copy : bool }

  let deliver = { link = 0; copy = false }

  let of_walk ?(copy_at = fun _ -> false) g walk =
    match walk with
    | [] -> invalid_arg "Ref.of_walk: empty walk"
    | [ _ ] -> []
    | first :: _ ->
        let rec build = function
          | [] | [ _ ] -> [ deliver ]
          | u :: (v :: _ as rest) ->
              { link = G.link_index g u v; copy = u <> first && copy_at u }
              :: build rest
        in
        build walk

  let of_walk_marked g walk =
    match walk with
    | [] -> invalid_arg "Ref.of_walk_marked: empty walk"
    | [ _ ] -> []
    | (first, _) :: _ ->
        let rec build = function
          | [] | [ _ ] -> [ deliver ]
          | (u, flag) :: ((v, _) :: _ as rest) ->
              { link = G.link_index g u v; copy = u <> first && flag }
              :: build rest
        in
        build walk

  let copy_targets g ~src t =
    let rec follow u acc = function
      | [] -> List.rev acc
      | [ { link = 0; _ } ] -> List.rev (u :: acc)
      | { link = 0; _ } :: _ -> invalid_arg "Ref.copy_targets: malformed header"
      | { link; copy } :: rest ->
          follow (G.peer_via g u link) (if copy then u :: acc else acc) rest
    in
    follow src [] t

  let hops t = List.length (List.filter (fun e -> e.link > 0) t)

  (* The encoding: one int per element, the copy flag in bit 0. *)
  let encode e = (e.link lsl 1) lor if e.copy then 1 else 0

  (* A hand-written header as a route.  [A.route_of_codes] refuses
     one that does not end in the NCU element. *)
  let route t = A.route_of_codes (Array.of_list (List.map encode t))

  let elems r =
    List.init (A.route_length r) (fun i ->
        { link = A.route_link r i; copy = A.route_copy r i })
end

(* The node walk a header visits when injected at [src]: the replay
   that checks a header against the walk it was built from. *)
let walk_of g ~src r =
  let rec follow u acc = function
    | [] | { Ref.link = 0; _ } :: _ -> List.rev (u :: acc)
    | { Ref.link; _ } :: rest -> follow (G.peer_via g u link) (u :: acc) rest
  in
  follow src [] (Ref.elems r)

let test_of_walk_simple () =
  let g = B.path 4 in
  let route = A.of_walk g [| 0; 1; 2; 3 |] in
  check_int "3 hops" 3 (Ref.hops (Ref.elems route));
  check_int "4 elements (incl NCU)" 4 (A.route_length route);
  check_ints "replay" [ 0; 1; 2; 3 ] (walk_of g ~src:0 route)

let test_of_walk_single_node () =
  let g = B.path 2 in
  check_int "empty route" 0 (A.route_length (A.of_walk g [| 0 |]))

let test_of_walk_nonadjacent_rejected () =
  let g = B.path 4 in
  check_bool "raises" true
    (try ignore (A.of_walk g [| 0; 2 |]); false with Not_found | Invalid_argument _ -> true)

let test_of_walk_empty_rejected () =
  let g = B.path 2 in
  check_bool "raises" true
    (try ignore (A.of_walk g [||]); false with Invalid_argument _ -> true);
  check_bool "marked raises" true
    (try ignore (A.of_walk_marked g [||]); false with Invalid_argument _ -> true)

let test_copy_targets_all () =
  let g = B.path 5 in
  let route = A.of_walk ~copy_at:(fun _ -> true) g [| 0; 1; 2; 3; 4 |] in
  check_ints "copies at intermediates + terminal" [ 1; 2; 3; 4 ]
    (A.copy_targets g ~src:0 route)

let test_copy_targets_none () =
  let g = B.path 5 in
  let route = A.of_walk g [| 0; 1; 2; 3; 4 |] in
  check_ints "terminal only" [ 4 ] (A.copy_targets g ~src:0 route)

let test_copy_targets_selective () =
  let g = B.path 5 in
  let route = A.of_walk ~copy_at:(fun v -> v = 2) g [| 0; 1; 2; 3; 4 |] in
  check_ints "node 2 and terminal" [ 2; 4 ] (A.copy_targets g ~src:0 route)

let test_injector_never_copies () =
  let g = B.ring 4 in
  let route = A.of_walk ~copy_at:(fun _ -> true) g [| 2; 3; 0 |] in
  check_ints "2 not copied" [ 3; 0 ] (A.copy_targets g ~src:2 route)

let test_walk_revisits () =
  let g = B.path 3 in
  let route = A.of_walk g [| 0; 1; 2; 1; 0; 1 |] in
  check_ints "replay of walk" [ 0; 1; 2; 1; 0; 1 ] (walk_of g ~src:0 route);
  check_int "5 hops" 5 (Ref.hops (Ref.elems route))

let test_of_walk_marked_first_visits () =
  let g = B.path 3 in
  (* depth-first tour 0 1 2 1 0, copy on first visits only *)
  let tour = [ 0; 1; 2; 1; 0 ] in
  let route = A.of_walk_marked g (Core.Walks.mark_first_visits tour) in
  (* copies at 1 (first visit) and 2... 2's first visit is mid-walk *)
  check_ints "copies" [ 1; 2; 0 ] (A.copy_targets g ~src:0 route)

(* The NCU element every route ends in: link 0, no copy flag. *)
let test_deliver_element () =
  let ncu = A.route_of_codes [| A.code ~link:0 ~copy:false |] in
  check_bool "deliver shape" true (Ref.elems ncu = [ Ref.deliver ]);
  check_bool "one-hop header ends in it" true
    (Ref.elems (A.hop 3) = [ { Ref.link = 3; copy = false }; Ref.deliver ]);
  check_bool "a route must end in it" true
    (try ignore (A.route_of_codes [| A.code ~link:1 ~copy:false |]); false
     with Invalid_argument _ -> true)

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
      let route = A.of_walk g (Array.of_list walk) in
      walk_of g ~src:0 route = walk)

let pack marked =
  Array.of_list (List.map (fun (v, f) -> (v lsl 1) lor if f then 1 else 0) marked)

let qcheck_of_walk_marked_packed =
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
      Ref.elems (A.of_walk_marked g (pack marked)) = Ref.of_walk_marked g marked)

(* A walk of [length] steps from [from], each to a random neighbour:
   revisits and immediate returns included. *)
let random_walk rng g ~from ~length =
  let rec extend v acc k =
    if k = 0 then List.rev acc
    else
      let next = Sim.Rng.pick rng (G.neighbors g v) in
      extend next (next :: acc) (k - 1)
  in
  extend from [ from ] length

(* The route builders against the list reference, element for
   element, over random connected graphs: [of_walk] on random walks
   under a random [copy_at] set (the injector included in it half the
   time), [of_walk_marked] on a marked Euler tour truncated after its
   last first visit, and [copy_targets] of both. *)
let qcheck_builders_match_reference =
  QCheck.Test.make ~name:"route builders equal the list reference" ~count:300
    QCheck.(pair (int_range 2 30) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Sim.Rng.create ~seed in
      let g = B.random_connected rng ~n ~extra_edges:(Sim.Rng.int rng (n + 1)) in
      let src = Sim.Rng.int rng n in
      let copies = Array.init n (fun _ -> Sim.Rng.bool rng) in
      let copy_at = Array.get copies in
      let walk = random_walk rng g ~from:src ~length:(Sim.Rng.int rng 12) in
      let route = A.of_walk ~copy_at g (Array.of_list walk) in
      let expected = Ref.of_walk ~copy_at g walk in
      let tour =
        Core.Walks.truncate
          (Core.Walks.euler_tour (Netgraph.Spanning.bfs_tree g ~root:src))
      in
      let marked = Core.Walks.mark_first_visits tour in
      let marked_ref =
        List.map (fun v -> (v lsr 1, v land 1 = 1)) (Array.to_list marked)
      in
      let marked_route = A.of_walk_marked g marked in
      let marked_expected = Ref.of_walk_marked g marked_ref in
      Ref.elems route = expected
      && A.copy_targets g ~src route = Ref.copy_targets g ~src expected
      && Ref.elems marked_route = marked_expected
      && A.copy_targets g ~src marked_route
         = Ref.copy_targets g ~src marked_expected)

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
    QCheck_alcotest.to_alcotest qcheck_of_walk_marked_packed;
    QCheck_alcotest.to_alcotest qcheck_builders_match_reference;
  ]
