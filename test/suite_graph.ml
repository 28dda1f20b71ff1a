(* Tests for Netgraph.Graph. *)

module G = Netgraph.Graph

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let triangle () = G.of_edges ~n:3 [ (0, 1); (1, 2); (2, 0) ]

let test_basic_counts () =
  let g = triangle () in
  check_int "n" 3 (G.n g);
  check_int "m" 3 (G.m g)

let test_neighbors_sorted () =
  let g = G.of_edges ~n:4 [ (2, 0); (2, 3); (2, 1) ] in
  Alcotest.(check (list int)) "sorted" [ 0; 1; 3 ] (G.neighbors g 2)

let test_duplicate_edges_collapsed () =
  let g = G.of_edges ~n:2 [ (0, 1); (1, 0); (0, 1) ] in
  check_int "m" 1 (G.m g);
  check_int "degree" 1 (G.degree g 0)

let test_self_loop_rejected () =
  Alcotest.check_raises "self-loop" (Invalid_argument "Graph.of_edges: self-loop at 1")
    (fun () -> ignore (G.of_edges ~n:2 [ (1, 1) ]))

let test_out_of_range_rejected () =
  Alcotest.check_raises "range" (Invalid_argument "Graph.of_edges: node 5 out of [0,3)")
    (fun () -> ignore (G.of_edges ~n:3 [ (0, 5) ]))

let test_empty_n_rejected () =
  Alcotest.check_raises "n=0" (Invalid_argument "Graph.of_edges: n must be positive")
    (fun () -> ignore (G.of_edges ~n:0 []))

let test_has_edge () =
  let g = triangle () in
  check_bool "0-1" true (G.has_edge g 0 1);
  check_bool "1-0" true (G.has_edge g 1 0);
  let g2 = G.of_edges ~n:3 [ (0, 1) ] in
  check_bool "0-2 absent" false (G.has_edge g2 0 2)

let test_edges_canonical () =
  let g = G.of_edges ~n:4 [ (3, 1); (2, 0) ] in
  Alcotest.(check (list (pair int int))) "u<v sorted" [ (0, 2); (1, 3) ] (G.edges g)

let test_link_index_roundtrip () =
  let g = G.of_edges ~n:5 [ (0, 1); (0, 2); (0, 4); (1, 2) ] in
  List.iter
    (fun v ->
      let i = G.link_index g 0 v in
      check_bool "index >= 1 (0 is the NCU)" true (i >= 1);
      check_int "roundtrip" v (G.peer_via g 0 i))
    (G.neighbors g 0)

let test_link_index_not_found () =
  let g = G.of_edges ~n:3 [ (0, 1) ] in
  check_bool "raises" true
    (try
       ignore (G.link_index g 0 2);
       false
     with Not_found -> true)

let test_peer_via_invalid () =
  let g = G.of_edges ~n:3 [ (0, 1) ] in
  check_bool "link 0 reserved" true
    (try ignore (G.peer_via g 0 0); false with Not_found -> true);
  check_bool "too large" true
    (try ignore (G.peer_via g 0 9); false with Not_found -> true)

let test_max_degree () =
  check_int "star max degree" 5 (G.max_degree (Netgraph.Builders.star 6))

let test_connectivity () =
  check_bool "triangle connected" true (G.is_connected (triangle ()));
  check_bool "disconnected" false (G.is_connected (G.of_edges ~n:4 [ (0, 1); (2, 3) ]));
  check_bool "singleton connected" true (G.is_connected (G.of_edges ~n:1 []))

let test_fold_iter () =
  let g = triangle () in
  check_int "fold counts" 3 (G.fold_nodes (fun _ acc -> acc + 1) g 0);
  let seen = ref [] in
  G.iter_nodes (fun v -> seen := v :: !seen) g;
  Alcotest.(check (list int)) "iter order" [ 0; 1; 2 ] (List.rev !seen)

let test_induced () =
  let g = Netgraph.Builders.ring 6 in
  let sub, back = G.induced g [ 5; 0; 1; 2 ] in
  check_int "4 nodes" 4 (G.n sub);
  Alcotest.(check (array int)) "back map" [| 0; 1; 2; 5 |] back;
  (* edges: 0-1, 1-2 and 5-0 of the ring survive, 2-3 and 4-5 do not *)
  check_int "3 edges" 3 (G.m sub);
  check_bool "0-1 kept" true (G.has_edge sub 0 1);
  check_bool "5-0 kept as 3-0" true (G.has_edge sub 3 0)

let test_induced_validation () =
  let g = Netgraph.Builders.path 3 in
  check_bool "empty rejected" true
    (try ignore (G.induced g []); false with Invalid_argument _ -> true);
  check_bool "range rejected" true
    (try ignore (G.induced g [ 9 ]); false with Invalid_argument _ -> true)

(* Undirected edge ids number the edges in [G.edges] order:
   [Chaos.Schedule] draws an id where it once drew from that list. *)
let test_undirected_ids_follow_edges () =
  let g =
    Netgraph.Builders.random_connected (Sim.Rng.create ~seed:4) ~n:64
      ~extra_edges:32
  in
  List.iteri
    (fun i (u, v) ->
      check_int "id of u-v" i (G.undirected_edge_id g u v);
      check_int "id of v-u" i (G.undirected_edge_id g v u))
    (G.edges g)

(* The point lookups run once per hop on route-building paths (walk
   compilation calls [link_index] per step), so they allocate nothing:
   the CSR binary search is a loop, not a local closure. *)
let test_lookups_allocate_nothing () =
  let g =
    Netgraph.Builders.random_connected (Sim.Rng.create ~seed:4) ~n:256
      ~extra_edges:128
  in
  let edges = Array.of_list (G.edges g) in
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let lookups () =
    let sum = ref 0 in
    for i = 0 to Array.length edges - 1 do
      let u, v = edges.(i) in
      if G.has_edge g u v && not (G.has_edge g u u) then
        sum :=
          !sum + G.link_index g u v + G.link_index g v u
          + G.undirected_edge_id g u v
    done;
    ignore (Sys.opaque_identity !sum : int)
  in
  let overhead = words ignore in
  check_int "minor words over all lookups" 0
    (int_of_float (words lookups -. overhead))

let qcheck_induced_component_connected =
  QCheck.Test.make ~name:"induced component is connected" ~count:100
    QCheck.(int_range 2 30)
    (fun n ->
      let rng = Sim.Rng.create ~seed:(n * 71) in
      let g = Netgraph.Builders.random_gnp rng ~n ~p:0.15 in
      let comp = Netgraph.Traversal.component_of g 0 in
      let sub, back = G.induced g comp in
      G.is_connected sub && Array.length back = List.length comp)

let qcheck_degree_sum =
  QCheck.Test.make ~name:"sum of degrees = 2m" ~count:200
    QCheck.(pair (int_range 2 20) (small_list (pair (int_range 0 19) (int_range 0 19))))
    (fun (n, raw) ->
      let edges = List.filter (fun (u, v) -> u <> v && u < n && v < n) raw in
      let g = G.of_edges ~n edges in
      G.fold_nodes (fun v acc -> acc + G.degree g v) g 0 = 2 * G.m g)

(* The sort-based CSR build that the counting sorts replaced, kept as
   the differential reference: every direction coded [u * n + v] and
   sorted, adjacent duplicates dropped, undirected ids assigned in the
   smaller endpoint's slice and looked up by binary search for the
   reverse direction.  Returns [(offsets, targets, uedge)]. *)
let reference_csr ~n edges =
  let codes = Array.make (2 * List.length edges) 0 in
  List.iteri
    (fun i (u, v) ->
      codes.(2 * i) <- (u * n) + v;
      codes.((2 * i) + 1) <- (v * n) + u)
    edges;
  Array.sort Int.compare codes;
  let unique =
    List.sort_uniq Int.compare (Array.to_list codes) |> Array.of_list
  in
  let offsets = Array.make (n + 1) 0 in
  Array.iter (fun c -> offsets.((c / n) + 1) <- offsets.((c / n) + 1) + 1) unique;
  for u = 0 to n - 1 do
    offsets.(u + 1) <- offsets.(u) + offsets.(u + 1)
  done;
  let targets = Array.map (fun c -> c mod n) unique in
  let slot u v =
    let rec go d = if targets.(d) = v then d else go (d + 1) in
    go offsets.(u)
  in
  let uedge = Array.make (Array.length targets) 0 in
  let next = ref 0 in
  for u = 0 to n - 1 do
    for d = offsets.(u) to offsets.(u + 1) - 1 do
      let v = targets.(d) in
      if u < v then begin
        uedge.(d) <- !next;
        incr next
      end
      else uedge.(d) <- uedge.(slot v u)
    done
  done;
  (offsets, targets, uedge)

(* Random edge lists with repeats in both orientations; the graph's
   CSR, read through the flat directed-edge accessors, equals the
   reference's. *)
let qcheck_csr_matches_reference =
  QCheck.Test.make ~name:"CSR equals the sort-based reference" ~count:300
    QCheck.(pair (int_range 1 30) (int_range 0 10_000))
    (fun (n, salt) ->
      let rng = Sim.Rng.create ~seed:((n * 7919) + salt) in
      let pairs =
        List.filter
          (fun (u, v) -> u <> v)
          (List.init (Sim.Rng.int rng (3 * n)) (fun _ ->
               (Sim.Rng.int rng n, Sim.Rng.int rng n)))
      in
      let repeats =
        List.filter_map
          (fun (u, v) ->
            match Sim.Rng.int rng 4 with
            | 0 -> Some (u, v)
            | 1 -> Some (v, u)
            | _ -> None)
          pairs
      in
      let edges = pairs @ repeats in
      let offsets, targets, uedge = reference_csr ~n edges in
      let g = G.of_edges ~n edges in
      let dirs = G.directed_edge_count g in
      G.m g = dirs / 2
      && Array.init (n + 1) (fun u ->
             G.fold_nodes (fun v acc -> if v < u then acc + G.degree g v else acc) g 0)
         = offsets
      && List.for_all
           (fun u -> G.degree g u = 0 || G.edge_id g u 1 = offsets.(u))
           (List.init n Fun.id)
      && Array.init dirs (G.edge_target g) = targets
      && Array.init dirs (G.edge_uid g) = uedge)

let suite =
  [
    Alcotest.test_case "basic counts" `Quick test_basic_counts;
    Alcotest.test_case "neighbors sorted" `Quick test_neighbors_sorted;
    Alcotest.test_case "duplicates collapsed" `Quick test_duplicate_edges_collapsed;
    Alcotest.test_case "self-loop rejected" `Quick test_self_loop_rejected;
    Alcotest.test_case "out of range rejected" `Quick test_out_of_range_rejected;
    Alcotest.test_case "empty n rejected" `Quick test_empty_n_rejected;
    Alcotest.test_case "has_edge symmetric" `Quick test_has_edge;
    Alcotest.test_case "edges canonical" `Quick test_edges_canonical;
    Alcotest.test_case "link_index roundtrip" `Quick test_link_index_roundtrip;
    Alcotest.test_case "link_index not found" `Quick test_link_index_not_found;
    Alcotest.test_case "undirected ids follow edges" `Quick
      test_undirected_ids_follow_edges;
    Alcotest.test_case "lookups allocate nothing" `Quick
      test_lookups_allocate_nothing;
    Alcotest.test_case "peer_via invalid" `Quick test_peer_via_invalid;
    Alcotest.test_case "max degree" `Quick test_max_degree;
    Alcotest.test_case "connectivity" `Quick test_connectivity;
    Alcotest.test_case "fold and iter" `Quick test_fold_iter;
    Alcotest.test_case "induced subgraph" `Quick test_induced;
    Alcotest.test_case "induced validation" `Quick test_induced_validation;
    QCheck_alcotest.to_alcotest qcheck_induced_component_connected;
    QCheck_alcotest.to_alcotest qcheck_degree_sum;
    QCheck_alcotest.to_alcotest qcheck_csr_matches_reference;
  ]
