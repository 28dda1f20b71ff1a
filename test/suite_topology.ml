(* Tests for Core.Topology: delta-view databases, the believed-edge
   bitset and the consistency checks. *)

module T = Core.Topology
module G = Netgraph.Graph
module B = Netgraph.Builders

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A view as the protocol builds one: down peers sorted, the shared
   empty delta when there are none. *)
let view origin seq downs =
  let downs =
    if downs = [] then T.no_downs else Array.of_list (List.sort compare downs)
  in
  { T.origin; seq; downs }

let known_nodes db = List.map (fun v -> v.T.origin) (T.all_views db)

let test_update_freshness () =
  let db = T.create () in
  check_bool "first absorbed" true (T.update db (view 0 1 []));
  check_bool "stale rejected" false (T.update db (view 0 1 [ 1 ]));
  check_bool "older rejected" false (T.update db (view 0 0 []));
  check_bool "fresher absorbed" true (T.update db (view 0 2 [ 1 ]));
  match T.find db 0 with
  | Some v -> check_int "latest seq" 2 v.T.seq
  | None -> Alcotest.fail "missing entry"

let test_update_all () =
  let db = T.create () in
  check_bool "any fresh" true (T.update_all db [ view 0 1 []; view 1 1 [] ]);
  check_bool "none fresh" false (T.update_all db [ view 0 1 []; view 1 0 [] ])

let test_set_own_overrides () =
  let db = T.create () in
  ignore (T.update db (view 0 5 []) : bool);
  T.set_own db (view 0 5 [ 1 ]);
  match T.find db 0 with
  | Some v -> check_bool "overridden same seq" true (T.reports_down v 1)
  | None -> Alcotest.fail "missing"

let test_all_views_sorted () =
  let db = T.create () in
  ignore (T.update_all db [ view 2 1 []; view 0 1 []; view 1 1 [] ] : bool);
  Alcotest.(check (list int)) "sorted origins" [ 0; 1; 2 ] (known_nodes db)

let test_no_downs_shared () =
  (* healthy views share the empty delta physically *)
  let o = Core.Topo_maintenance.run ~graph:(B.ring 6) ~events:[] () in
  let views =
    List.concat_map T.all_views (Array.to_list o.Core.Topo_maintenance.dbs)
  in
  check_bool "the run exchanged views" true (views <> []);
  List.iter
    (fun v -> check_bool "is no_downs" true (v.T.downs == T.no_downs))
    views

let test_reports_down_search () =
  let v = view 0 1 [ 7; 3; 11 ] in
  check_bool "member" true (T.reports_down v 3);
  check_bool "member" true (T.reports_down v 7);
  check_bool "member" true (T.reports_down v 11);
  check_bool "non-member" false (T.reports_down v 5);
  check_bool "non-member" false (T.reports_down v 0)

(* the AND rule read both ways: from the views, and from the bitset a
   tracking database keeps incrementally *)
let believed db g u v =
  let by_views = T.believed_edge db u v in
  check_bool "bitset agrees with the views" by_views
    (T.believes db (G.undirected_edge_id g u v));
  by_views

let test_believed_graph_and_rule () =
  let g = B.path 3 in
  (* edges 0-1, 1-2 *)
  let db = T.create ~graph:g () in
  (* both say up -> edge up *)
  ignore (T.update db (view 0 1 []) : bool);
  ignore (T.update db (view 1 1 []) : bool);
  check_bool "edge believed" true (believed db g 0 1);
  (* one side reports down -> edge down *)
  let before = T.version db in
  ignore (T.update db (view 1 2 [ 0 ]) : bool);
  check_bool "AND rule" false (believed db g 0 1);
  check_bool "version moved" true (T.version db > before);
  (* a fresher view with the same delta changes nothing *)
  let before = T.version db in
  ignore (T.update db (view 1 3 [ 0 ]) : bool);
  check_int "same downs, same version" before (T.version db)

let test_believed_graph_single_report () =
  let g = B.ring 3 in
  let db = T.create ~graph:g () in
  ignore (T.update db (view 0 1 []) : bool);
  check_bool "single report trusted" true (believed db g 0 2);
  check_bool "unreported edge absent" false (believed db g 1 2)

let test_believed_graph_single_down_report () =
  let g = B.ring 3 in
  let db = T.create ~graph:g () in
  ignore (T.update db (view 2 1 [ 0 ]) : bool);
  check_bool "down report means no edge" false (believed db g 0 2);
  check_bool "other incident edge trusted" true (believed db g 1 2)

let test_believed_subgraph_of_physical () =
  (* views are deltas against the physical adjacency and the bitset
     spans the physical edge ids only, so the believed topology cannot
     contain a phantom edge by construction *)
  let g = B.path 3 in
  let db = T.create ~graph:g () in
  ignore (T.update_all db [ view 0 1 []; view 1 1 []; view 2 1 [] ] : bool);
  check_bool "every physical edge believed" true
    (List.for_all (fun (u, v) -> believed db g u v) (G.edges g));
  let live = T.live g ~up:(G.has_edge g) in
  check_bool "believed set is the physical one" true
    (G.fold_nodes (fun v ok -> ok && T.consistent_live db live ~node:v) g true)

let test_clear_forgets () =
  let g = B.ring 4 in
  let db = T.create ~graph:g () in
  T.attach_base db (Array.init 4 (fun o -> view o 0 []));
  check_bool "base believed" true (believed db g 0 1);
  let before = T.version db in
  T.clear db;
  check_int "no views" 0 (List.length (known_nodes db));
  check_bool "nothing believed" false (believed db g 0 1);
  check_bool "version moved" true (T.version db > before)

let test_untracked_refuses () =
  let db = T.create () in
  Alcotest.check_raises "believes needs tracking"
    (Invalid_argument "Topology: the database does not track believed edges")
    (fun () -> ignore (T.believes db 0 : bool))

let test_consistency_full_knowledge () =
  let g = B.grid ~rows:3 ~cols:3 in
  let db = T.create () in
  G.iter_nodes (fun v -> ignore (T.update db (view v 1 []) : bool)) g;
  G.iter_nodes
    (fun v ->
      check_bool "consistent" true
        (T.consistent_with db ~graph:g ~actual:g ~node:v))
    g

let test_consistency_detects_missing_report () =
  let g = B.ring 4 in
  let db = T.create () in
  (* only node 0 has reported: nodes 1-2 and 2-3 stay unbelieved, so
     0's believed component misses node 2 *)
  ignore (T.update db (view 0 1 []) : bool);
  check_bool "incomplete view inconsistent" false
    (T.consistent_with db ~graph:g ~actual:g ~node:0)

let test_consistency_per_component () =
  (* after a partition, each side needs only its own component *)
  let g = G.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  let actual = G.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  let db = T.create () in
  ignore (T.update db (view 0 1 [ 3 ]) : bool);
  ignore (T.update db (view 1 1 [ 2 ]) : bool);
  check_bool "knows own component" true
    (T.consistent_with db ~graph:g ~actual ~node:0);
  check_bool "does not know the other" false
    (T.consistent_with db ~graph:g ~actual ~node:2)

let test_consistency_rejects_stale_up_claim () =
  (* node 2's stale view still believes its link to 1 is up although
     the link has failed: believed has 1-2, actual does not *)
  let g = B.path 3 in
  let actual = G.of_edges ~n:3 [ (0, 1) ] in
  let db = T.create () in
  ignore
    (T.update_all db [ view 0 1 []; view 1 2 [ 2 ]; view 2 1 [] ] : bool);
  (* 1 reports the failure but 2 does not: AND rule kills the edge *)
  check_bool "AND rule covers the stale claim" true
    (T.consistent_with db ~graph:g ~actual ~node:0);
  let db2 = T.create () in
  ignore (T.update_all db2 [ view 0 1 []; view 1 1 []; view 2 1 [] ] : bool);
  (* nobody reports the failure: believed keeps 1-2, inconsistent *)
  check_bool "stale up claim detected" false
    (T.consistent_with db2 ~graph:g ~actual ~node:0)

(* -- the bitset check against the reference ----------------------------- *)

(* The [T77] verdict as the believed-graph implementation computed it:
   materialise both graphs over the physical edge list and compare the
   node's components as lists. *)
let oracle db ~graph ~actual ~node =
  let believed =
    G.of_edges ~n:(G.n graph)
      (List.filter (fun (u, v) -> T.believed_edge db u v) (G.edges graph))
  in
  let component g = Netgraph.Traversal.component_of g node in
  component actual = component believed
  &&
  let inside = Array.make (G.n graph) false in
  List.iter (fun v -> inside.(v) <- true) (component actual);
  let restrict g = List.filter (fun (u, v) -> inside.(u) && inside.(v)) (G.edges g) in
  restrict believed = restrict actual

(* A random database over a random live state: every origin's view is
   absent, accurate (lists exactly its dead links), all-up or a random
   delta, absorbed through [update] or [set_own] at random seqs, over an
   optional preseed base, with an occasional [clear]. *)
let random_case rng ~n =
  let graph = B.random_connected rng ~n ~extra_edges:(Sim.Rng.int rng (n + 1)) in
  let live = List.filter (fun _ -> Sim.Rng.chance rng 0.7) (G.edges graph) in
  let actual = G.of_edges ~n live in
  let db = T.create ~graph () in
  if Sim.Rng.bool rng then T.attach_base db (Array.init n (fun o -> view o 0 []));
  for _ = 1 to Sim.Rng.int_in rng 0 (3 * n) do
    if Sim.Rng.chance rng 0.03 then T.clear db
    else begin
      let o = Sim.Rng.int rng n in
      let peers = G.neighbors graph o in
      let downs =
        match Sim.Rng.int rng 3 with
        | 0 -> List.filter (fun p -> not (G.has_edge actual o p)) peers
        | 1 -> []
        | _ -> List.filter (fun _ -> Sim.Rng.bool rng) peers
      in
      let v = view o (Sim.Rng.int rng 6) downs in
      if Sim.Rng.bool rng then ignore (T.update db v : bool) else T.set_own db v
    end
  done;
  (graph, actual, db)

let qcheck_live_check_exact =
  QCheck.Test.make ~name:"bitset check equals the T77 reference" ~count:500
    QCheck.(pair (int_range 2 8) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let graph, actual, db = random_case (Sim.Rng.create ~seed) ~n in
      let live = T.live graph ~up:(G.has_edge actual) in
      List.for_all
        (fun (u, v) -> T.believes db (G.undirected_edge_id graph u v) = T.believed_edge db u v)
        (G.edges graph)
      && G.fold_nodes
           (fun node ok ->
             let reference = T.consistent_with db ~graph ~actual ~node in
             ok
             && reference = oracle db ~graph ~actual ~node
             && T.consistent_live db live ~node = reference)
           graph true)

(* -- the view database against its polymorphic-Hashtbl reference ------- *)

(* The database as it was before its int-keyed overlay: a polymorphic
   [Hashtbl] keyed by origin, option-returning lookups, and a base
   attached to each database on its own. *)
module Ref = struct
  type db = {
    mutable base : T.local_view array option;
    tbl : (int, T.local_view) Hashtbl.t;
    graph : G.t option;
    edges : Bytes.t;
    mutable version : int;
  }

  let bit_mem bits e = Char.code (Bytes.get bits (e lsr 3)) land (1 lsl (e land 7)) <> 0

  let bit_flip bits e =
    let i = e lsr 3 in
    Bytes.set bits i (Char.chr (Char.code (Bytes.get bits i) lxor (1 lsl (e land 7))))

  let create ?graph () =
    {
      base = None;
      tbl = Hashtbl.create 16;
      graph;
      edges =
        (match graph with Some g -> Bytes.make ((G.m g + 7) / 8) '\000' | None -> Bytes.empty);
      version = 0;
    }

  let find db origin =
    match Hashtbl.find_opt db.tbl origin with
    | Some _ as v -> v
    | None -> (
        match db.base with
        | Some b when origin >= 0 && origin < Array.length b -> Some b.(origin)
        | _ -> None)

  let believed_edge db u v =
    match (find db u, find db v) with
    | None, None -> false
    | Some vu, None -> not (T.reports_down vu v)
    | None, Some vv -> not (T.reports_down vv u)
    | Some vu, Some vv -> (not (T.reports_down vu v)) && not (T.reports_down vv u)

  let refresh_origin db g origin =
    let flipped = ref false in
    List.iter
      (fun peer ->
        let id = G.undirected_edge_id g origin peer in
        if believed_edge db origin peer <> bit_mem db.edges id then begin
          bit_flip db.edges id;
          flipped := true
        end)
      (G.neighbors g origin);
    if !flipped then db.version <- db.version + 1

  let store db old (view : T.local_view) =
    Hashtbl.replace db.tbl view.origin view;
    match (db.graph, old) with
    | None, _ -> ()
    | Some _, Some (o : T.local_view) when o.downs = view.downs -> ()
    | Some g, _ -> refresh_origin db g view.origin

  let attach_base db views =
    db.base <- Some views;
    match db.graph with
    | None -> ()
    | Some g -> G.iter_nodes (refresh_origin db g) g

  let clear db =
    Hashtbl.reset db.tbl;
    db.base <- None;
    Bytes.fill db.edges 0 (Bytes.length db.edges) '\000';
    db.version <- db.version + 1

  let update db (view : T.local_view) =
    match find db view.origin with
    | Some stored when stored.seq >= view.seq -> false
    | old ->
        store db old view;
        true

  let set_own db (view : T.local_view) = store db (find db view.origin) view

  let all_views db =
    match db.base with
    | None ->
        Hashtbl.fold (fun _ v acc -> v :: acc) db.tbl []
        |> List.sort (fun (a : T.local_view) b -> compare a.origin b.origin)
    | Some b ->
        Array.to_list
          (Array.mapi
             (fun o bv -> match Hashtbl.find_opt db.tbl o with Some v -> v | None -> bv)
             b)
end

(* A random view of [o] over [g]: no downs, or a random set of its
   peers, sometimes as a fresh copy of the array so that equal deltas
   are not always the same physical array. *)
let random_view rng g o =
  let downs = List.filter (fun _ -> Sim.Rng.bool rng) (G.neighbors g o) in
  let v = view o (Sim.Rng.int rng 6) downs in
  if Sim.Rng.bool rng then { v with T.downs = Array.copy v.T.downs } else v

let random_base rng g =
  Array.init (G.n g) (fun o ->
      if Sim.Rng.chance rng 0.7 then view o 0 [] else random_view rng g o)

type step = Update of T.local_view | Set_own of T.local_view | Attach of T.local_view array | Clear

let random_step rng g =
  match Sim.Rng.int rng 20 with
  | 0 -> Clear
  | 1 | 2 -> Attach (random_base rng g)
  | k ->
      let v = random_view rng g (Sim.Rng.int rng (G.n g)) in
      if k < 12 then Update v else Set_own v

(* One step on both databases: whether [update]'s verdicts agree.
   [attach] installs a base: [T.attach_base], or [T.preseed] on this
   database alone. *)
let apply ~attach db rdb = function
  | Update v -> T.update db v = Ref.update rdb v
  | Set_own v -> T.set_own db v; Ref.set_own rdb v; true
  | Attach b -> attach db b; Ref.attach_base rdb b; true
  | Clear -> T.clear db; Ref.clear rdb; true

let same_state g db rdb =
  List.for_all (fun o -> T.find db o = Ref.find rdb o) (List.init (G.n g + 1) Fun.id)
  && T.all_views db = Ref.all_views rdb
  && List.for_all
       (fun (u, v) -> T.believed_edge db u v = Ref.believed_edge rdb u v)
       (G.edges g)
  && (Option.is_none rdb.Ref.graph
     || List.for_all
          (fun e -> T.believes db e = Ref.bit_mem rdb.Ref.edges e)
          (List.init (G.m g) Fun.id))

let qcheck_db_matches_reference =
  QCheck.Test.make ~name:"view database equals the Hashtbl reference" ~count:300
    QCheck.(pair (int_range 1 10) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = Sim.Rng.create ~seed in
      let g = B.random_connected rng ~n ~extra_edges:(Sim.Rng.int rng (n + 1)) in
      let graph = if Sim.Rng.chance rng 0.8 then Some g else None in
      let db = T.create ?graph () and rdb = Ref.create ?graph () in
      let attach =
        if Sim.Rng.bool rng then T.attach_base else fun db b -> T.preseed [| db |] b
      in
      let rec go k =
        k = 0
        ||
        let step = random_step rng g in
        let before = T.version db and rbefore = rdb.Ref.version in
        apply ~attach db rdb step
        && (T.version db <> before) = (rdb.Ref.version <> rbefore)
        && same_state g db rdb
        && go (k - 1)
      in
      go (Sim.Rng.int_in rng 1 (4 * n + 4)))

(* Preseeding k databases at once, some fresh, some cleared, some
   already holding views, over one of two graphs or none: each ends
   with the bits, the views and the version change that attaching the
   base to it alone gives. *)
let qcheck_preseed_equals_attach =
  QCheck.Test.make ~name:"preseeding k databases equals attaching each" ~count:300
    QCheck.(pair (int_range 1 10) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = Sim.Rng.create ~seed in
      let random_graph () =
        B.random_connected rng ~n ~extra_edges:(Sim.Rng.int rng (n + 1))
      in
      let g1 = random_graph () and g2 = random_graph () in
      let k = Sim.Rng.int_in rng 1 5 in
      let setups =
        List.init k (fun _ ->
            let graph =
              match Sim.Rng.int rng 4 with 0 -> None | 1 -> Some g2 | _ -> Some g1
            in
            let steps =
              match Sim.Rng.int rng 3 with
              | 0 -> []
              | 1 -> List.init (Sim.Rng.int_in rng 1 (2 * n)) (fun _ -> random_step rng g1) @ [ Clear ]
              | _ -> List.init (Sim.Rng.int_in rng 1 (2 * n)) (fun _ -> random_step rng g1)
            in
            (graph, steps))
      in
      let build () =
        List.map
          (fun (graph, steps) ->
            let db = T.create ?graph () and rdb = Ref.create ?graph () in
            List.iter (fun step -> ignore (apply ~attach:T.attach_base db rdb step : bool)) steps;
            (graph, db))
          setups
      in
      let together = build () and alone = build () in
      let base = random_base rng g1 in
      let moved dbs f =
        let before = List.map (fun (_, db) -> T.version db) dbs in
        f ();
        List.map2 (fun (_, db) b -> T.version db - b) dbs before
      in
      let moved_together =
        moved together (fun () -> T.preseed (Array.of_list (List.map snd together)) base)
      and moved_alone =
        moved alone (fun () -> List.iter (fun (_, db) -> T.attach_base db base) alone)
      in
      moved_together = moved_alone
      && List.for_all2
           (fun (graph, db) (_, adb) ->
             T.all_views db = T.all_views adb
             &&
             match graph with
             | None -> true
             | Some g ->
                 List.for_all
                   (fun e -> T.believes db e = T.believes adb e)
                   (List.init (G.m g) Fun.id))
           together alone)

let suite =
  [
    Alcotest.test_case "update freshness" `Quick test_update_freshness;
    Alcotest.test_case "update_all" `Quick test_update_all;
    Alcotest.test_case "set_own overrides" `Quick test_set_own_overrides;
    Alcotest.test_case "all_views sorted" `Quick test_all_views_sorted;
    Alcotest.test_case "no_downs shared" `Quick test_no_downs_shared;
    Alcotest.test_case "reports_down search" `Quick test_reports_down_search;
    Alcotest.test_case "believed graph AND rule" `Quick test_believed_graph_and_rule;
    Alcotest.test_case "single report trusted" `Quick test_believed_graph_single_report;
    Alcotest.test_case "single down report" `Quick test_believed_graph_single_down_report;
    Alcotest.test_case "believed subgraph of physical" `Quick
      test_believed_subgraph_of_physical;
    Alcotest.test_case "clear forgets" `Quick test_clear_forgets;
    Alcotest.test_case "untracked refuses" `Quick test_untracked_refuses;
    Alcotest.test_case "consistency full knowledge" `Quick test_consistency_full_knowledge;
    Alcotest.test_case "consistency missing report" `Quick
      test_consistency_detects_missing_report;
    Alcotest.test_case "consistency per component" `Quick test_consistency_per_component;
    Alcotest.test_case "stale up claim rejected" `Quick
      test_consistency_rejects_stale_up_claim;
    QCheck_alcotest.to_alcotest qcheck_live_check_exact;
    QCheck_alcotest.to_alcotest qcheck_db_matches_reference;
    QCheck_alcotest.to_alcotest qcheck_preseed_equals_attach;
  ]
