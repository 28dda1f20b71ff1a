(* Tests for Core.Walks. *)

module W = Core.Walks
module T = Netgraph.Tree
module B = Netgraph.Builders
module S = Netgraph.Spanning

let check_int = Alcotest.(check int)
let check_ints = Alcotest.(check (list int))
let check_bool = Alcotest.(check bool)

let sample () = T.of_parents ~root:0 ~parents:[ (1, 0); (2, 0); (3, 1) ]

let test_euler_tour () =
  check_ints "closed tour" [ 0; 1; 3; 1; 0; 2; 0 ] (W.euler_tour (sample ()));
  check_ints "children in the given order" [ 0; 2; 0; 1; 3; 1; 0 ]
    (W.euler_tour
       ~order:(fun ~self:_ ~children -> List.rev children)
       (sample ()))

let test_euler_tour_length () =
  let rng = Sim.Rng.create ~seed:1 in
  for _ = 1 to 20 do
    let g = B.random_tree rng ~n:40 in
    let t = S.bfs_tree g ~root:0 in
    check_int "2n-1 entries" (2 * T.size t - 1) (List.length (W.euler_tour t))
  done

let test_truncated_tour () =
  check_ints "cut after last first-visit" [ 0; 1; 3; 1; 0; 2 ]
    (W.truncate (W.euler_tour (sample ())))

let test_truncated_visits_all () =
  let rng = Sim.Rng.create ~seed:2 in
  for _ = 1 to 20 do
    let g = B.random_tree rng ~n:40 in
    let t = S.bfs_tree g ~root:0 in
    let tour = W.truncate (W.euler_tour t) in
    check_int "covers all nodes" (T.size t)
      (List.length (List.sort_uniq compare tour));
    (* the final entry is a first visit *)
    let rec last = function [ x ] -> x | _ :: r -> last r | [] -> assert false in
    let final = last tour in
    let before = List.filteri (fun i _ -> i < List.length tour - 1) tour in
    check_bool "last entry is fresh" false (List.mem final before)
  done

let test_restrict_to_depth () =
  let t = sample () in
  let r0 = W.restrict_to_depth t 0 in
  check_int "depth 0" 1 (T.size r0);
  let r1 = W.restrict_to_depth t 1 in
  check_ints "depth 1 nodes" [ 0; 1; 2 ] (List.sort compare (T.nodes r1));
  let r2 = W.restrict_to_depth t 2 in
  check_int "depth 2 full" 4 (T.size r2)

let test_mark_first_visits () =
  (* position i packs (node lsl 1) lor first *)
  Alcotest.(check (array int))
    "marks" [| 1; 3; 0; 5; 0 |]
    (W.mark_first_visits [ 0; 1; 0; 2; 0 ])

let test_singleton_tour () =
  check_ints "singleton" [ 5 ] (W.euler_tour (T.of_parents ~root:5 ~parents:[]));
  check_ints "singleton truncated" [ 5 ]
    (W.truncate (W.euler_tour (T.of_parents ~root:5 ~parents:[])))

let qcheck_tour_consecutive_edges =
  QCheck.Test.make ~name:"euler tour steps are tree edges" ~count:100
    QCheck.(int_range 2 40)
    (fun n ->
      let rng = Sim.Rng.create ~seed:(n * 5) in
      let g = B.random_tree rng ~n in
      let t = S.bfs_tree g ~root:0 in
      let tour = W.euler_tour t in
      let rec ok = function
        | u :: (v :: _ as rest) ->
            (T.parent t u = Some v || T.parent t v = Some u) && ok rest
        | _ -> true
      in
      ok tour)

let suite =
  [
    Alcotest.test_case "euler tour" `Quick test_euler_tour;
    Alcotest.test_case "euler tour length" `Quick test_euler_tour_length;
    Alcotest.test_case "truncated tour" `Quick test_truncated_tour;
    Alcotest.test_case "truncated visits all" `Quick test_truncated_visits_all;
    Alcotest.test_case "restrict to depth" `Quick test_restrict_to_depth;
    Alcotest.test_case "mark first visits" `Quick test_mark_first_visits;
    Alcotest.test_case "singleton tour" `Quick test_singleton_tour;
    QCheck_alcotest.to_alcotest qcheck_tour_consecutive_edges;
  ]
