(* Tests for Netgraph.Tree. *)

module T = Netgraph.Tree

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_ints = Alcotest.(check (list int))

(* Oracles for the spanning-tree builders, over the tree's public
   view: [spans t g] holds when [t]'s members are exactly [0..n-1] and
   every tree edge is a graph edge; [is_subgraph t g] when every tree
   edge is a graph edge. *)
let is_subgraph t g =
  List.for_all (fun (p, v) -> Netgraph.Graph.has_edge g p v) (T.edges t)

let spans t g =
  T.size t = Netgraph.Graph.n g
  && List.for_all (fun v -> 0 <= v && v < Netgraph.Graph.n g) (T.nodes t)
  && is_subgraph t g

(* The hash-table tree that the array one replaced, kept as the
   differential reference: the same accessors, the same outputs and the
   same Invalid_argument texts. *)
module Ref = struct
  type t = {
    root : int;
    parents : (int, int) Hashtbl.t;  (* child -> parent; no entry for root *)
    kids : (int, int list) Hashtbl.t;  (* parent -> sorted children *)
    members : (int, unit) Hashtbl.t;
    size : int;
  }

  let mem t v = Hashtbl.mem t.members v

  let check_member t v =
    if not (mem t v) then
      invalid_arg (Printf.sprintf "Tree: node %d is not a member" v)

  let of_parents ~root ~parents =
    let members = Hashtbl.create (List.length parents + 1) in
    Hashtbl.replace members root ();
    List.iter
      (fun (v, _) ->
        if v = root then
          invalid_arg "Tree.of_parents: the root cannot have a parent";
        if Hashtbl.mem members v then
          invalid_arg (Printf.sprintf "Tree.of_parents: duplicate entry for %d" v);
        Hashtbl.replace members v ())
      parents;
    let parent_tbl = Hashtbl.create (List.length parents) in
    List.iter
      (fun (v, p) ->
        if not (Hashtbl.mem members p) then
          invalid_arg
            (Printf.sprintf "Tree.of_parents: parent %d of %d is not a member" p v);
        Hashtbl.replace parent_tbl v p)
      parents;
    let verified = Hashtbl.create 16 in
    Hashtbl.replace verified root ();
    let on_path = Hashtbl.create 16 in
    let rec climb path v =
      if Hashtbl.mem verified v then
        List.iter (fun u -> Hashtbl.replace verified u ()) path
      else if Hashtbl.mem on_path v then
        invalid_arg "Tree.of_parents: cycle detected"
      else begin
        Hashtbl.replace on_path v ();
        match Hashtbl.find_opt parent_tbl v with
        | None -> invalid_arg "Tree.of_parents: disconnected node"
        | Some p -> climb (v :: path) p
      end
    in
    List.iter
      (fun (v, _) ->
        Hashtbl.reset on_path;
        climb [] v)
      parents;
    let kids = Hashtbl.create (List.length parents + 1) in
    List.iter
      (fun (v, p) ->
        let existing = Option.value ~default:[] (Hashtbl.find_opt kids p) in
        Hashtbl.replace kids p (v :: existing))
      parents;
    Hashtbl.iter
      (fun p l -> Hashtbl.replace kids p (List.sort compare l))
      (Hashtbl.copy kids);
    { root; parents = parent_tbl; kids; members; size = List.length parents + 1 }

  let root t = t.root
  let size t = t.size

  let parent t v =
    check_member t v;
    Hashtbl.find_opt t.parents v

  let children t v =
    check_member t v;
    Option.value ~default:[] (Hashtbl.find_opt t.kids v)

  let nodes t =
    let rec go acc = function
      | [] -> List.rev acc
      | v :: rest -> go (v :: acc) (children t v @ rest)
    in
    go [] [ t.root ]

  let depth_of t v =
    check_member t v;
    let rec up v acc =
      match Hashtbl.find_opt t.parents v with
      | None -> acc
      | Some p -> up p (acc + 1)
    in
    up v 0

  let height t = List.fold_left (fun acc v -> max acc (depth_of t v)) 0 (nodes t)

  let path_from_root t v =
    check_member t v;
    let rec up v acc =
      match Hashtbl.find_opt t.parents v with
      | None -> v :: acc
      | Some p -> up p (v :: acc)
    in
    up v []

  let edges t =
    List.filter_map
      (fun v -> Option.map (fun p -> (p, v)) (Hashtbl.find_opt t.parents v))
      (nodes t)

  let pp ppf t =
    let rec render = function
      | [] -> ()
      | (prefix, v) :: rest ->
          Format.fprintf ppf "%s%d@." prefix v;
          let deeper = prefix ^ "  " in
          render (List.map (fun c -> (deeper, c)) (children t v) @ rest)
    in
    render [ ("", t.root) ]
end

(* 0 -> 1 -> 3, 1 -> 4, 0 -> 2 *)
let sample () = T.of_parents ~root:0 ~parents:[ (1, 0); (2, 0); (3, 1); (4, 1) ]

let test_singleton () =
  let t = T.of_parents ~root:7 ~parents:[] in
  check_int "size" 1 (T.size t);
  check_int "root" 7 (T.root t);
  check_ints "nodes" [ 7 ] (T.nodes t);
  check_bool "no parent" true (T.parent t 7 = None);
  check_int "height" 0 (T.height t)

let test_structure () =
  let t = sample () in
  check_int "size" 5 (T.size t);
  check_ints "children of 0" [ 1; 2 ] (T.children t 0);
  check_ints "children of 1" [ 3; 4 ] (T.children t 1);
  check_ints "leaves" [ 3; 4; 2 ]
    (List.filter (fun v -> T.children t v = []) (T.nodes t));
  check_bool "parent of 3" true (T.parent t 3 = Some 1)

let test_preorder () =
  check_ints "preorder" [ 0; 1; 3; 4; 2 ] (T.nodes (sample ()))

let test_depth_height () =
  let t = sample () in
  check_int "depth root" 0 (T.depth_of t 0);
  check_int "depth 4" 2 (T.depth_of t 4);
  check_int "height" 2 (T.height t)

let test_paths () =
  let t = sample () in
  check_ints "path from root" [ 0; 1; 4 ] (T.path_from_root t 4);
  check_ints "path to 2" [ 0; 2 ] (T.path_from_root t 2);
  check_ints "path to the root" [ 0 ] (T.path_from_root t 0)

let test_edges () =
  Alcotest.(check (list (pair int int)))
    "parent-child pairs" [ (0, 1); (1, 3); (1, 4); (0, 2) ]
    (T.edges (sample ()))

let test_cycle_rejected () =
  Alcotest.(check bool) "cycle raises" true
    (try ignore (T.of_parents ~root:0 ~parents:[ (1, 2); (2, 1) ]); false
     with Invalid_argument _ -> true)

let test_root_with_parent_rejected () =
  Alcotest.(check bool) "root parent raises" true
    (try ignore (T.of_parents ~root:0 ~parents:[ (0, 1); (1, 0) ]); false
     with Invalid_argument _ -> true)

let test_duplicate_rejected () =
  Alcotest.(check bool) "dup raises" true
    (try ignore (T.of_parents ~root:0 ~parents:[ (1, 0); (1, 0) ]); false
     with Invalid_argument _ -> true)

let test_orphan_parent_rejected () =
  Alcotest.(check bool) "orphan raises" true
    (try ignore (T.of_parents ~root:0 ~parents:[ (1, 9) ]); false
     with Invalid_argument _ -> true)

let test_non_member_queries () =
  let t = sample () in
  Alcotest.(check bool) "children of stranger raises" true
    (try ignore (T.children t 42); false with Invalid_argument _ -> true)

let test_map_nodes () =
  let t = T.map_nodes (fun v -> v + 10) (sample ()) in
  check_int "root" 10 (T.root t);
  check_ints "children" [ 11; 12 ] (T.children t 10)

let test_spans () =
  let g = Netgraph.Builders.path 3 in
  let t = T.of_parents ~root:0 ~parents:[ (1, 0); (2, 1) ] in
  check_bool "spans path" true (spans t g);
  let partial = T.of_parents ~root:0 ~parents:[ (1, 0) ] in
  check_bool "partial does not span" false (spans partial g);
  check_bool "partial is subgraph" true (is_subgraph partial g);
  let bad = T.of_parents ~root:0 ~parents:[ (2, 0) ] in
  check_bool "chord not subgraph" false (is_subgraph bad g)

(* Arrays are indexed by node id, so ids must be non-negative; the
   array constructor reports the list constructor's faults under its
   own name. *)
let test_refusals () =
  let raises msg f = Alcotest.check_raises msg (Invalid_argument msg) f in
  raises "Tree.of_parents: negative node id -1" (fun () ->
      ignore (T.of_parents ~root:(-1) ~parents:[]));
  raises "Tree.of_parents: negative node id -3" (fun () ->
      ignore (T.of_parents ~root:0 ~parents:[ (1, 0); (-3, 1) ]));
  raises "Tree.of_parents: parent -2 of 1 is not a member" (fun () ->
      ignore (T.of_parents ~root:0 ~parents:[ (1, -2) ]));
  raises "Tree.of_parent_array: root 3 out of [0,3)" (fun () ->
      ignore (T.of_parent_array ~root:3 [| -1; 0; 0 |]));
  raises "Tree.of_parent_array: the root cannot have a parent" (fun () ->
      ignore (T.of_parent_array ~root:0 [| 1; 0; -1 |]));
  raises "Tree.of_parent_array: parent 2 of 1 is not a member" (fun () ->
      ignore (T.of_parent_array ~root:0 [| -1; 2; -1 |]));
  raises "Tree.of_parent_array: parent 5 of 1 is not a member" (fun () ->
      ignore (T.of_parent_array ~root:0 [| -1; 5; -1 |]));
  raises "Tree.of_parent_array: cycle detected" (fun () ->
      ignore (T.of_parent_array ~root:0 [| -1; 2; 1 |]))

let qcheck_random_tree_roundtrip =
  QCheck.Test.make ~name:"random parent arrays make valid trees" ~count:200
    QCheck.(int_range 1 40)
    (fun n ->
      let rng = Sim.Rng.create ~seed:n in
      let parents = List.init (n - 1) (fun i -> (i + 1, Sim.Rng.int rng (i + 1))) in
      let t = T.of_parents ~root:0 ~parents in
      T.size t = n
      && List.length (T.nodes t) = n
      && List.for_all (fun v -> List.hd (T.path_from_root t v) = 0) (T.nodes t))

(* A random tree of [k] members with sparse ids in [0, 3k), any member
   as the root, its (child, parent) pairs in random order. *)
let random_parents rng k =
  let ids = Array.init (3 * k) Fun.id in
  Sim.Rng.shuffle_array_in_place rng ids;
  let ids = Array.sub ids 0 k in
  let parents =
    List.init (k - 1) (fun i -> (ids.(i + 1), ids.(Sim.Rng.int rng (i + 1))))
  in
  let parents = Array.of_list parents in
  Sim.Rng.shuffle_array_in_place rng parents;
  (ids.(0), ids, Array.to_list parents)

let outcome f = try Ok (f ()) with Invalid_argument msg -> Error msg

(* Every accessor of the tree agrees with the reference's on every
   member and on non-members, including the error text. *)
let agrees t r ~probes =
  let same f g v = outcome (fun () -> f t v) = outcome (fun () -> g r v) in
  T.root t = Ref.root r
  && T.size t = Ref.size r
  && T.nodes t = Ref.nodes r
  && T.edges t = Ref.edges r
  && T.height t = Ref.height r
  && Format.asprintf "%a" T.pp t = Format.asprintf "%a" Ref.pp r
  && List.for_all
       (fun v ->
         same T.parent Ref.parent v
         && same T.children Ref.children v
         && same T.depth_of Ref.depth_of v
         && same T.path_from_root Ref.path_from_root v)
       probes

let qcheck_matches_reference =
  QCheck.Test.make ~name:"accessors equal the hash-table reference" ~count:300
    QCheck.(pair (int_range 1 40) (int_range 0 10_000))
    (fun (k, salt) ->
      let rng = Sim.Rng.create ~seed:((k * 7919) + salt) in
      let root, _, parents = random_parents rng k in
      let probes = List.init ((3 * k) + 2) (fun v -> v - 1) in
      let t = T.of_parents ~root ~parents and r = Ref.of_parents ~root ~parents in
      let arr = Array.make (3 * k) (-1) in
      List.iter (fun (v, p) -> arr.(v) <- p) parents;
      let shift v = v + 5 in
      agrees t r ~probes
      && agrees (T.of_parent_array ~root arr) r ~probes
      && agrees (T.map_nodes shift t)
           (Ref.of_parents ~root:(shift root)
              ~parents:(List.map (fun (v, p) -> (shift v, shift p)) parents))
           ~probes:(List.map shift probes))

(* One or two faults planted in a valid list: a cycle (a node hung
   below its own subtree), a duplicate child entry, an orphaned parent
   or a parent on the root, at random places.  Both builders must
   refuse with the same text, so they check in the same order. *)
let qcheck_faults_match_reference =
  QCheck.Test.make ~name:"invalid lists raise the reference's error" ~count:300
    QCheck.(pair (int_range 2 30) (int_range 0 10_000))
    (fun (k, salt) ->
      let rng = Sim.Rng.create ~seed:((k * 104_729) + salt) in
      let root, ids, parents = random_parents rng k in
      let valid = Ref.of_parents ~root ~parents in
      let member () = ids.(Sim.Rng.int rng k) in
      let insert x l =
        let at = Sim.Rng.int rng (List.length l + 1) in
        List.filteri (fun i _ -> i < at) l
        @ (x :: List.filteri (fun i _ -> i >= at) l)
      in
      let plant parents =
        match Sim.Rng.int rng 4 with
        | 0 ->
            (* hang [v] below a node of its own subtree, itself included *)
            let v, _ = Sim.Rng.pick rng parents in
            let p =
              Sim.Rng.pick rng
                (List.filter
                   (fun u -> List.mem v (Ref.path_from_root valid u))
                   (Ref.nodes valid))
            in
            List.map (fun (u, q) -> if u = v then (u, p) else (u, q)) parents
        | 1 -> insert (fst (Sim.Rng.pick rng parents), member ()) parents
        | 2 ->
            let stranger =
              if Sim.Rng.bool rng then -1 - Sim.Rng.int rng 3
              else (3 * k) + Sim.Rng.int rng 3
            in
            let i = Sim.Rng.int rng (List.length parents) in
            List.mapi (fun j (v, p) -> if j = i then (v, stranger) else (v, p)) parents
        | _ -> insert (root, member ()) parents
      in
      let faulty = plant parents in
      let faulty = if Sim.Rng.bool rng then plant faulty else faulty in
      let err f = match outcome f with Ok _ -> None | Error msg -> Some msg in
      let expected = err (fun () -> ignore (Ref.of_parents ~root ~parents:faulty)) in
      expected <> None
      && err (fun () -> ignore (T.of_parents ~root ~parents:faulty)) = expected)

let suite =
  [
    Alcotest.test_case "singleton" `Quick test_singleton;
    Alcotest.test_case "structure" `Quick test_structure;
    Alcotest.test_case "preorder" `Quick test_preorder;
    Alcotest.test_case "depth and height" `Quick test_depth_height;
    Alcotest.test_case "paths" `Quick test_paths;
    Alcotest.test_case "edges" `Quick test_edges;
    Alcotest.test_case "cycle rejected" `Quick test_cycle_rejected;
    Alcotest.test_case "root parent rejected" `Quick test_root_with_parent_rejected;
    Alcotest.test_case "duplicate rejected" `Quick test_duplicate_rejected;
    Alcotest.test_case "orphan parent rejected" `Quick test_orphan_parent_rejected;
    Alcotest.test_case "non-member queries" `Quick test_non_member_queries;
    Alcotest.test_case "map_nodes" `Quick test_map_nodes;
    Alcotest.test_case "spans / subgraph" `Quick test_spans;
    Alcotest.test_case "negative ids and array faults refused" `Quick test_refusals;
    QCheck_alcotest.to_alcotest qcheck_random_tree_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_matches_reference;
    QCheck_alcotest.to_alcotest qcheck_faults_match_reference;
  ]
