(* Tests for Netgraph.Builders. *)

module B = Netgraph.Builders
module G = Netgraph.Graph

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_path () =
  let g = B.path 5 in
  check_int "n" 5 (G.n g);
  check_int "m" 4 (G.m g);
  check_int "endpoint degree" 1 (G.degree g 0);
  check_int "interior degree" 2 (G.degree g 2)

let test_path_singleton () =
  let g = B.path 1 in
  check_int "n" 1 (G.n g);
  check_int "m" 0 (G.m g)

let test_ring () =
  let g = B.ring 6 in
  check_int "m" 6 (G.m g);
  G.iter_nodes (fun v -> check_int "2-regular" 2 (G.degree g v)) g

let test_ring_too_small () =
  check_bool "raises" true
    (try ignore (B.ring 2); false with Invalid_argument _ -> true)

let test_star () =
  let g = B.star 7 in
  check_int "m" 6 (G.m g);
  check_int "hub degree" 6 (G.degree g 0);
  check_int "leaf degree" 1 (G.degree g 3)

let test_complete () =
  let g = B.complete 6 in
  check_int "m" 15 (G.m g);
  G.iter_nodes (fun v -> check_int "5-regular" 5 (G.degree g v)) g

let test_grid () =
  let g = B.grid ~rows:3 ~cols:4 in
  check_int "n" 12 (G.n g);
  check_int "m" 17 (G.m g);  (* 3*3 + 2*4 *)
  check_int "corner degree" 2 (G.degree g 0);
  check_bool "connected" true (G.is_connected g)

let test_torus () =
  let g = B.torus ~rows:3 ~cols:5 in
  check_int "n" 15 (G.n g);
  check_int "m" 30 (G.m g);
  G.iter_nodes (fun v -> check_int "4-regular" 4 (G.degree g v)) g

let test_hypercube () =
  let g = B.hypercube 5 in
  check_int "n" 32 (G.n g);
  check_int "m" 80 (G.m g);  (* d * 2^(d-1) *)
  G.iter_nodes (fun v -> check_int "5-regular" 5 (G.degree g v)) g;
  check_bool "connected" true (G.is_connected g)

let test_hypercube_zero () =
  check_int "d=0 single node" 1 (G.n (B.hypercube 0))

let test_complete_binary_tree () =
  let g = B.complete_binary_tree ~depth:3 in
  check_int "n" 15 (G.n g);
  check_int "m" 14 (G.m g);
  check_int "root degree" 2 (G.degree g 0);
  check_int "leaf degree" 1 (G.degree g 14);
  check_int "nodes helper" 15 (B.binary_tree_nodes ~depth:3)

let test_complete_kary_tree () =
  let g = B.complete_kary_tree ~arity:3 ~depth:2 in
  check_int "n = 1+3+9" 13 (G.n g);
  check_int "root degree" 3 (G.degree g 0)

let test_caterpillar () =
  let g = B.caterpillar ~spine:4 ~legs:2 in
  check_int "n" 12 (G.n g);
  check_int "m" 11 (G.m g);
  check_bool "tree (connected, n-1 edges)" true (G.is_connected g)

let test_random_gnp_bounds () =
  let rng = Sim.Rng.create ~seed:1 in
  let g = B.random_gnp rng ~n:20 ~p:1.0 in
  check_int "p=1 is complete" 190 (G.m g);
  let g0 = B.random_gnp rng ~n:20 ~p:0.0 in
  check_int "p=0 is empty" 0 (G.m g0)

let test_random_tree () =
  let rng = Sim.Rng.create ~seed:2 in
  let g = B.random_tree rng ~n:30 in
  check_int "m = n-1" 29 (G.m g);
  check_bool "connected" true (G.is_connected g)

let test_random_connected () =
  let rng = Sim.Rng.create ~seed:3 in
  for _ = 1 to 10 do
    let g = B.random_connected rng ~n:25 ~extra_edges:10 in
    check_bool "connected" true (G.is_connected g);
    check_bool "extra edges added" true (G.m g >= 24)
  done

let qcheck_builders_connected =
  QCheck.Test.make ~name:"standard families are connected" ~count:50
    QCheck.(int_range 3 32)
    (fun n ->
      List.for_all G.is_connected
        [ B.path n; B.ring n; B.star n; B.complete n;
          B.grid ~rows:3 ~cols:n; B.caterpillar ~spine:n ~legs:1 ])

(* The hash-table dedup that the open-addressing set replaced, kept as
   the differential reference. *)
let reference_random_connected rng ~n ~extra_edges =
  let edges = ref [] in
  for v = 1 to n - 1 do
    edges := (v, Sim.Rng.int rng v) :: !edges
  done;
  let added = ref 0 in
  let attempts = ref 0 in
  let seen = Hashtbl.create (2 * (n + extra_edges)) in
  let code u v = if u < v then (u * n) + v else (v * n) + u in
  List.iter (fun (u, v) -> Hashtbl.replace seen (code u v) ()) !edges;
  while !added < extra_edges && !attempts < 100 * (extra_edges + 1) do
    incr attempts;
    let u = Sim.Rng.int rng n and v = Sim.Rng.int rng n in
    if u <> v && not (Hashtbl.mem seen (code u v)) then begin
      edges := (u, v) :: !edges;
      Hashtbl.replace seen (code u v) ();
      incr added
    end
  done;
  G.of_edges ~n !edges

(* The same edges, and the same draws left in the stream, over random
   sizes; up to n^2 extra edges on small n asks for more than the
   complete graph, so the attempt cap ends those requests. *)
let qcheck_random_connected_matches_reference =
  QCheck.Test.make ~name:"random_connected equals the hash-table reference"
    ~count:300
    QCheck.(triple (int_range 0 10_000) (int_range 1 40) (int_range 0 1600))
    (fun (seed, n, extra) ->
      let extra_edges = extra mod ((n * n) + 1) in
      let rng = Sim.Rng.create ~seed and rng' = Sim.Rng.create ~seed in
      let g = B.random_connected rng ~n ~extra_edges in
      let r = reference_random_connected rng' ~n ~extra_edges in
      G.edges g = G.edges r && Sim.Rng.int rng 1_000_000 = Sim.Rng.int rng' 1_000_000)

let suite =
  [
    Alcotest.test_case "path" `Quick test_path;
    Alcotest.test_case "path singleton" `Quick test_path_singleton;
    Alcotest.test_case "ring" `Quick test_ring;
    Alcotest.test_case "ring too small" `Quick test_ring_too_small;
    Alcotest.test_case "star" `Quick test_star;
    Alcotest.test_case "complete" `Quick test_complete;
    Alcotest.test_case "grid" `Quick test_grid;
    Alcotest.test_case "torus" `Quick test_torus;
    Alcotest.test_case "hypercube" `Quick test_hypercube;
    Alcotest.test_case "hypercube d=0" `Quick test_hypercube_zero;
    Alcotest.test_case "complete binary tree" `Quick test_complete_binary_tree;
    Alcotest.test_case "complete k-ary tree" `Quick test_complete_kary_tree;
    Alcotest.test_case "caterpillar" `Quick test_caterpillar;
    Alcotest.test_case "gnp bounds" `Quick test_random_gnp_bounds;
    Alcotest.test_case "random tree" `Quick test_random_tree;
    Alcotest.test_case "random connected" `Quick test_random_connected;
    QCheck_alcotest.to_alcotest qcheck_builders_connected;
    QCheck_alcotest.to_alcotest qcheck_random_connected_matches_reference;
  ]
