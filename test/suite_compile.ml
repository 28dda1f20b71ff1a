(* Tests for the compiled-topology cache (lib/compile, DESIGN.md §12):
   physical sharing on hit, recompilation on miss, one route table
   shipped with or without a fault plan, the route compiler and the
   ack climb against their walk references, and the oracle regression
   showing what a stale route table would break. *)

module Cache = Compile.Cache
module Topology = Compile.Topology
module BP = Core.Branching_paths
module B = Netgraph.Builders
module G = Netgraph.Graph

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let sorted_edges g =
  List.sort compare
    (List.map (fun (u, v) -> (min u v, max u v)) (G.edges g))

let test_hit_is_physically_shared () =
  Cache.clear ();
  let a = Cache.random_connected ~seed:5 ~n:32 ~extra_edges:16 in
  let b = Cache.random_connected ~seed:5 ~n:32 ~extra_edges:16 in
  check_bool "same artifact" true (a == b);
  check_bool "same graph" true (Topology.graph a == Topology.graph b);
  (* derived fields fill once and are shared through the artifact *)
  check_bool "same labelling" true
    (Topology.labelling a == Topology.labelling b);
  let s = Cache.stats () in
  check_int "one miss" 1 s.Cache.misses;
  check_bool "at least one hit" true (s.Cache.hits >= 1)

let test_miss_recompiles () =
  Cache.clear ();
  let a = Cache.random_connected ~seed:5 ~n:32 ~extra_edges:16 in
  let b = Cache.random_connected ~seed:6 ~n:32 ~extra_edges:16 in
  let c = Cache.random_connected ~seed:5 ~n:48 ~extra_edges:24 in
  check_bool "distinct artifacts" true (a != b && a != c && b != c);
  check_bool "distinct graphs" true
    (sorted_edges (Topology.graph a) <> sorted_edges (Topology.graph b));
  check_int "three misses" 3 (Cache.stats ()).Cache.misses

let test_artifact_matches_direct_builder () =
  Cache.clear ();
  let art = Cache.random_connected ~seed:7 ~n:40 ~extra_edges:20 in
  let direct =
    B.random_connected (Sim.Rng.create ~seed:7) ~n:40 ~extra_edges:20
  in
  Alcotest.(check (list (pair int int)))
    "same graph as the uncached builder" (sorted_edges direct)
    (sorted_edges (Topology.graph art))

let test_sweep_replica_matches_sweep_streams () =
  (* the canned sweep-replica family must reproduce exactly the stream
     Parallel.Sweep derives for replica [index] of a master [seed] *)
  Cache.clear ();
  let seed = 42 and index = 3 and n = 32 in
  let art = Cache.sweep_replica ~seed ~index ~n in
  let child = (Sim.Rng.split_n (Sim.Rng.create ~seed) (index + 1)).(index) in
  let graph_rng, _run = Sim.Rng.split child in
  let expected = B.random_connected graph_rng ~n ~extra_edges:(n / 2) in
  Alcotest.(check (list (pair int int)))
    "replica graph" (sorted_edges expected)
    (sorted_edges (Topology.graph art))

let test_routes_compiled_once () =
  Cache.clear ();
  let art = Cache.random_connected ~seed:5 ~n:32 ~extra_edges:16 in
  match (Topology.routes art ~chaos:None, Topology.routes art ~chaos:None) with
  | Some r1, Some r2 -> check_bool "one compiled table" true (r1 == r2)
  | _ -> Alcotest.fail "routes must be available without a fault plan"

let test_fault_plan_keeps_routes () =
  Cache.clear ();
  let art = Cache.random_connected ~seed:5 ~n:32 ~extra_edges:16 in
  let plan =
    [ Hardware.Fault_plan.Link_set { at = 0.0; u = 0; v = 1; up = false } ]
  in
  match (Topology.routes art ~chaos:(Some plan), Topology.routes art ~chaos:None) with
  | Some r1, Some r2 -> check_bool "the one compiled table" true (r1 == r2)
  | _ -> Alcotest.fail "routes must be available with or without a fault plan"

let test_chaos_run_ships_routes () =
  (* under a fault plan a supplied table and the one the root compiles
     at start are the same, and so are the runs *)
  Cache.clear ();
  let art = Cache.random_connected ~seed:9 ~n:24 ~extra_edges:12 in
  let g = Topology.graph art in
  let routes = Topology.routes art ~chaos:None in
  let plan =
    [ Hardware.Fault_plan.Link_set { at = 0.0; u = 0; v = 1; up = false } ]
  in
  let config = { (Core.Broadcast.default_config ()) with chaos = Some plan } in
  let with_routes = BP.run ~config ?routes ~graph:g ~root:0 () in
  let without = BP.run ~config ~graph:g ~root:0 () in
  check_bool "same run with and without a supplied table" true (with_routes = without)

(* Why a broadcast ships one table, compiled once.  A compiled route
   table is only sound as long as it is *the* decomposition of one
   tree: if harnesses mixed tables from two epochs (here modelled as
   the union of the fresh table and one compiled from a different
   spanning tree of the same graph), chain walks overlap and nodes
   hear the payload twice — exactly what the chaos at-most-once
   oracle rejects. *)
let test_stale_routes_violate_at_most_once () =
  Cache.clear ();
  let n = 6 in
  let art = Cache.complete ~n in
  let g = Topology.graph art in
  let fresh =
    match Topology.routes art ~chaos:None with
    | Some r -> r
    | None -> Alcotest.fail "routes must compile"
  in
  (* a stale epoch: the path 0-1-2-...-5 is also a spanning tree of the
     complete graph; its single chain covers every node.  Masking every
     other edge makes it the BFS tree the compiler builds. *)
  let path_edge = Array.make (Netgraph.Graph.m g) false in
  for i = 0 to n - 2 do
    path_edge.(Netgraph.Graph.undirected_edge_id g i (i + 1)) <- true
  done;
  let stale = (BP.compile_routes ~edge_up:(Array.get path_edge) g ~root:0).table in
  check_int "one chain from the root" 1 (Array.length stale.(0));
  let mixed =
    { fresh with table = Array.init n (fun v -> Array.append fresh.table.(v) stale.(v)) }
  in
  let deliveries_with routes =
    let tap = Chaos.Oracle.tap g in
    let trace = Sim.Trace.streaming ~consumer:(Chaos.Oracle.observe tap) () in
    let config =
      { (Core.Broadcast.default_config ()) with trace = Some trace }
    in
    ignore (BP.run ~config ~routes ~graph:g ~root:0 () : Core.Broadcast.result);
    Chaos.Oracle.deliveries tap
  in
  let ok routes =
    (Chaos.Oracle.at_most_once_delivery ~deliveries:(deliveries_with routes))
      .Hardware.Monitor.ok
  in
  check_bool "fresh table delivers each node once" true (ok fresh);
  check_bool "stale-mixed table caught by the oracle" false (ok mixed)

(* A recovering broadcast from a root other than 0, over a view that
   lacks some of the grid's links, under a fault plan that crashes
   a tree node and cuts a tree link, then heals both.  The digest of
   its streamed JSONL trace was computed when chaos runs still built
   every header, data and ack alike, from labelling walks. *)
let test_recovering_view_broadcast_pinned () =
  let g = B.grid ~rows:6 ~cols:6 in
  let n = G.n g and root = 14 in
  let spine = Netgraph.Tree.edges (Netgraph.Spanning.bfs_tree g ~root:35) in
  let view =
    G.of_edges ~n
      (List.filter
         (fun (u, v) ->
           (u + v) mod 3 = 0 || List.mem (u, v) spine || List.mem (v, u) spine)
         (G.edges g))
  in
  check_bool "the view lacks links" true (G.m view < G.m g);
  let plan =
    Hardware.Fault_plan.
      [
        Node_set { at = 0.5; node = 21; alive = false };
        Link_set { at = 1.5; u = 14; v = 20; up = false };
        Drop_in_flight { at = 2.0; u = 13; v = 14 };
        Node_set { at = 3.0; node = 21; alive = true };
        Link_set { at = 4.0; u = 14; v = 20; up = true };
      ]
  in
  let lines = Buffer.create 4096 in
  let consumer e =
    Buffer.add_string lines (Sim.Trace_export.jsonl_of_event e);
    Buffer.add_char lines '\n';
    true
  in
  let config =
    {
      (Core.Broadcast.default_config ()) with
      view = Some view;
      trace = Some (Sim.Trace.streaming ~consumer ());
      chaos = Some plan;
      recover = Some (Hardware.Recover.default ~n);
    }
  in
  let r = BP.run ~config ~graph:g ~root () in
  check_bool "everyone reached" true (Core.Broadcast.all_reached r);
  check_bool "the faults forced a retransmission" true (r.syscalls > 2 * n);
  Alcotest.(check string)
    "streamed trace" "579aba7072e913ad2eee4e4ceeabf8f8"
    (Digest.to_hex (Digest.string (Buffer.contents lines)))

let test_precomputed_routes_parity () =
  (* the fast path must be semantically invisible: same result record
     with and without the shared artifact *)
  Cache.clear ();
  let art = Cache.random_connected ~seed:11 ~n:40 ~extra_edges:20 in
  let g = Topology.graph art in
  let plain = BP.run ~graph:g ~root:0 () in
  let fast =
    BP.run ?routes:(Topology.routes art ~chaos:None) ~graph:g ~root:0 ()
  in
  check_bool "identical results" true (plain = fast)

(* The engine's allocation budget.  An untraced, registry-free
   branching-paths broadcast over compiled routes runs one engine event
   per system call and one per hop; the minor words it allocates per
   event are a deterministic function of the binary: 24.1 measured,
   25.1 when the network took the later of two times with [Float.max]
   (which returns a boxed float), 27.4 with a record per link and a
   context per node, 50.9 before the engine queue and the per-run
   handlers. *)
let words_per_event_bound = 26.0

let test_bpaths_words_per_event () =
  let art = Cache.random_connected ~seed:11 ~n:1024 ~extra_edges:512 in
  let graph = Topology.graph art in
  let routes = Topology.routes art ~chaos:None in
  let run () = BP.run ?routes ~graph ~root:0 () in
  ignore (run ());
  let before = Gc.minor_words () in
  let r = run () in
  let words = Gc.minor_words () -. before in
  let per_event = words /. float_of_int (r.syscalls + r.hops) in
  if per_event > words_per_event_bound then
    Alcotest.failf "%.2f minor words per engine event, bound %.1f" per_event
      words_per_event_bound

(* The same budget for the election (Section 4): an untraced,
   registry-free run with every node a starter, one engine event per
   system call and one per hop.  30.32 minor words per event measured;
   30.53 when a captured node copied its parent route on every relay,
   31.3 when every send built its header from a node walk, 54.6 with
   the hash-table INOUT domains and the announcement rebuilt through a
   Tree.  The bound sits just under the per-relay copy. *)
let election_words_per_event_bound = 30.4

let test_election_words_per_event () =
  let art = Cache.random_connected ~seed:11 ~n:512 ~extra_edges:256 in
  let graph = Topology.graph art in
  let run () = Core.Election.run ~graph () in
  ignore (run ());
  let before = Gc.minor_words () in
  let r = run () in
  let words = Gc.minor_words () -. before in
  let per_event = words /. float_of_int (r.total_syscalls + r.hops) in
  if per_event > election_words_per_event_bound then
    Alcotest.failf "%.2f minor words per engine event, bound %.1f" per_event
      election_words_per_event_bound

(* The same budget for flooding (Section 3's ARPANET baseline): an
   untraced, registry-free run from node 0, one engine event per system
   call and one per hop.  29.5 minor words per event measured, 41.5
   when each forward built its header from a [[self; peer]] walk. *)
let flooding_words_per_event_bound = 31.0

let test_flooding_words_per_event () =
  let art = Cache.random_connected ~seed:11 ~n:1024 ~extra_edges:512 in
  let graph = Topology.graph art in
  let run () = Core.Flooding.run ~graph ~root:0 () in
  ignore (run ());
  let before = Gc.minor_words () in
  let r = run () in
  let words = Gc.minor_words () -. before in
  let per_event = words /. float_of_int (r.syscalls + r.hops) in
  if per_event > flooding_words_per_event_bound then
    Alcotest.failf "%.2f minor words per engine event, bound %.1f" per_event
      flooding_words_per_event_bound

(* The heal op's allocation budget: generate a healing schedule and run
   it in liveness mode with the recovery layer on, the benchmark's heal
   shape, over eight fixed n=256 schedules.  Minor words per system
   call: 121.3 measured, 151.8 when every run attached a registry for
   the four counts its verdict reads, and 189.6 when chaos relays built
   their headers from labelling walks and each ack climbed a [Tree.t].
   Older pins read 250.3, 266.5 with a closure per CSR edge lookup, and
   369.7 with the tuple-table fault replay and a retained trace ring. *)
let heal_words_per_syscall_bound = 130.0

let test_heal_words_per_syscall () =
  Cache.clear ();
  let indices = List.init 8 Fun.id in
  let op index =
    let s = Chaos.Schedule.generate_healing ~n:256 ~seed:3 ~index () in
    Chaos.Runner.run_schedule ~liveness:true Parallel.Sweep.Bpaths s
  in
  List.iter (fun index -> ignore (op index : Chaos.Runner.verdict)) indices;
  let before = Gc.minor_words () in
  let syscalls =
    List.fold_left (fun acc index -> acc + (op index).syscalls) 0 indices
  in
  let per_syscall = (Gc.minor_words () -. before) /. float_of_int syscalls in
  if per_syscall > heal_words_per_syscall_bound then
    Alcotest.failf "%.2f minor words per syscall, bound %.1f" per_syscall
      heal_words_per_syscall_bound

(* A protocol run retires its engine and its network's arrays for the
   next run of the same size, so a repeat broadcast allocates directly
   in the major heap only the per-run [handlers] array and the result's
   [reached], about 2n words.  Direct major words are [major_words]
   less [promoted_words]: 2.00n (8,194 words) measured, 15.50n (63,498)
   when every run allocated its engine queue, link, FIFO, NCU and
   metrics arrays afresh.  They are read from [Gc.counters], which
   counts this domain alone: [Gc.quick_stat] also sums what other
   domains allocated (the parallel suite's workers, say), so its
   reading varies with GC timing and test order. *)
let repeat_major_words_per_node_bound = 2.2

let test_repeat_broadcast_major_words () =
  let n = 4096 in
  let art = Cache.random_connected ~seed:11 ~n ~extra_edges:(n / 2) in
  let graph = Topology.graph art in
  let routes = Topology.routes art ~chaos:None in
  let run () =
    ignore (BP.run ?routes ~graph ~root:0 () : Core.Broadcast.result)
  in
  run ();
  let _, promoted0, major0 = Gc.counters () in
  run ();
  let _, promoted1, major1 = Gc.counters () in
  let direct = major1 -. major0 -. (promoted1 -. promoted0) in
  if direct > repeat_major_words_per_node_bound *. float_of_int n then
    Alcotest.failf
      "repeat broadcast at n=%d: %.0f direct major words, bound %.1fn" n direct repeat_major_words_per_node_bound

(* A network holds no record per link or per node: link state is one
   packed int per link and handler contexts are built at activation,
   so [Network.create]'s minor allocation does not grow with n.
   68 words measured at both sizes; 7,766 at n=1024 and 30,806
   at n=4096 with a record per link and a context per node. *)
let create_minor_words_bound = 75.0

let test_network_create_words () =
  List.iter
    (fun n ->
      let graph =
        B.random_connected (Sim.Rng.create ~seed:11) ~n ~extra_edges:(n / 2)
      in
      let engine = Sim.Engine.create () in
      let cost = Hardware.Cost_model.new_model () in
      let handlers _ = Hardware.Network.default_handlers in
      let before = Gc.minor_words () in
      let net = Hardware.Network.create ~engine ~cost ~graph ~handlers () in
      let words = Gc.minor_words () -. before in
      ignore (Sys.opaque_identity net);
      if words > create_minor_words_bound then
        Alcotest.failf "Network.create at n=%d: %.0f minor words, bound %.0f"
          n words create_minor_words_bound)
    [ 1024; 4096 ]

(* The broadcast's set-up (Section 3.1, step (1)): build the graph,
   its BFS tree and the labelling, the compile cache's cold path.  Big
   arrays go straight to the major heap, so the minor words per node
   count what the set-up builds in small blocks: lists, pairs, options
   and closures.  26.1 measured at n=4096; 152.4 with a hash table
   deduplicating edges, three per tree and two more per labelling. *)
let setup_minor_words_per_node_bound = 28.5

let test_setup_minor_words_per_node () =
  let n = 4096 in
  let setup () =
    let g = B.random_connected (Sim.Rng.create ~seed:11) ~n ~extra_edges:(n / 2) in
    Core.Labels.compute (Netgraph.Spanning.bfs_tree g ~root:0)
  in
  ignore (setup ());
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (setup ()));
  let per_node = (Gc.minor_words () -. before) /. float_of_int n in
  if per_node > setup_minor_words_per_node_bound then
    Alcotest.failf "set-up at n=%d: %.2f minor words per node, bound %.1f" n
      per_node setup_minor_words_per_node_bound

let test_stats_and_pp_stats () =
  Cache.clear ();
  ignore (Cache.random_connected ~seed:5 ~n:32 ~extra_edges:16);
  ignore (Cache.random_connected ~seed:5 ~n:32 ~extra_edges:16);
  ignore (Cache.random_connected ~seed:6 ~n:32 ~extra_edges:16);
  let s = Cache.stats () in
  check_int "hits" 1 s.Cache.hits;
  check_int "misses" 2 s.Cache.misses;
  check_int "resident" 2 (Cache.resident ());
  (* the stats are published as the text summary the bench and trace
     reports print *)
  Alcotest.(check string) "pp_stats"
    (Printf.sprintf
       "compile cache: 1 hits, 2 misses, %d evictions (2 artifacts resident)"
       s.Cache.evictions)
    (Format.asprintf "%a" Cache.pp_stats ())

(* The route compiler against the pipeline it replaced: BFS tree,
   labelling, then each chain's copy-all header built from its walk. *)
let reference_routes ?edge_up g ~root =
  let l = Core.Labels.compute (Netgraph.Spanning.bfs_tree ?edge_up g ~root) in
  Array.init (G.n g) (fun v ->
      Array.of_list
        (List.map
           (fun walk ->
             Suite_anr.Ref.(route (of_walk ~copy_at:(fun _ -> true) g walk)))
           (Core.Labels.paths_from l v)))

(* [Spanning.bfs_tree]'s parents as an array over all nodes: -1 at
   the root and outside its component. *)
let reference_parent ?edge_up g ~root =
  let tree = Netgraph.Spanning.bfs_tree ?edge_up g ~root in
  let parent = Array.make (G.n g) (-1) in
  List.iter
    (fun v -> Option.iter (fun p -> parent.(v) <- p) (Netgraph.Tree.parent tree v))
    (Netgraph.Tree.nodes tree);
  parent

(* Random connected graphs, each edge kept with a per-case probability
   (low ones disconnect the graph), compiled from every root: the
   table, and the smallest-id parent the BFS pass picks. *)
let qcheck_routes_match_reference =
  QCheck.Test.make ~name:"compile_routes equals the labelling reference"
    ~count:200
    QCheck.(pair (int_range 1 40) (int_range 0 10_000))
    (fun (n, salt) ->
      let rng = Sim.Rng.create ~seed:((n * 7919) + salt) in
      let g = B.random_connected rng ~n ~extra_edges:(Sim.Rng.int rng (n + 1)) in
      let keep = 0.2 +. Sim.Rng.float rng 0.8 in
      let up = Array.init (G.m g) (fun _ -> Sim.Rng.chance rng keep) in
      let edge_up = Array.get up in
      List.for_all
        (fun root ->
          let masked = BP.compile_routes ~edge_up g ~root
          and whole = BP.compile_routes g ~root in
          masked.table = reference_routes ~edge_up g ~root
          && masked.parent = reference_parent ~edge_up g ~root
          && whole.table = reference_routes g ~root
          && whole.parent = reference_parent g ~root)
        (List.init n Fun.id))

(* The ack climb against the walk it replaced: the path up
   [Spanning.bfs_tree] from each non-root member to the root, compiled
   with no copies, as [Tree.path_from_root] gives it. *)
let reference_ack tree g v =
  Suite_anr.Ref.(route (of_walk g (List.rev (Netgraph.Tree.path_from_root tree v))))

let qcheck_ack_route_matches_tree_walk =
  QCheck.Test.make ~name:"ack route equals the tree walk up to the root"
    ~count:200
    QCheck.(pair (int_range 1 40) (int_range 0 10_000))
    (fun (n, salt) ->
      let rng = Sim.Rng.create ~seed:((n * 104_729) + salt) in
      let g = B.random_connected rng ~n ~extra_edges:(Sim.Rng.int rng (n + 1)) in
      let root = Sim.Rng.int rng n in
      let parent = (BP.compile_routes g ~root).parent in
      let tree = Netgraph.Spanning.bfs_tree g ~root in
      List.for_all
        (fun v ->
          if v = root then parent.(v) = -1
          else
            Core.Broadcast.Recovery.ack_route g ~parent v = reference_ack tree g v)
        (List.init n Fun.id))

(* A view that is a spanning tree of the network, rooted elsewhere
   than the broadcast: the root's table is the view tree's
   decomposition, its headers written in the network's link indices,
   and its acks climb the view tree. *)
let test_view_routes_match_reference () =
  let g = B.grid ~rows:6 ~cols:6 in
  let view =
    G.of_edges ~n:(G.n g) (Netgraph.Tree.edges (Netgraph.Spanning.bfs_tree g ~root:35))
  in
  List.iter
    (fun root ->
      let tree = Netgraph.Spanning.bfs_tree view ~root in
      let l = Core.Labels.compute tree in
      let expected =
        Array.init (G.n g) (fun v ->
            Array.of_list
              (List.map
                 (fun walk ->
                   Suite_anr.Ref.(route (of_walk ~copy_at:(fun _ -> true) g walk)))
                 (Core.Labels.paths_from l v)))
      in
      let c = BP.compile_view ~graph:g ~view ~root in
      let name = Printf.sprintf "root %d" root in
      check_bool (name ^ ": table") true (c.BP.table = expected);
      check_bool (name ^ ": differs from the network's own table") true
        (c.BP.table <> (BP.compile_routes g ~root).table);
      List.iter
        (fun v ->
          if v <> root then
            check_bool (Printf.sprintf "%s: ack from %d" name v) true
              (Core.Broadcast.Recovery.ack_route g ~parent:c.BP.parent v
              = reference_ack tree g v))
        (List.init (G.n g) Fun.id))
    [ 0; 14; 20 ]

let test_cache_routes_match_reference () =
  Cache.clear ();
  List.iter
    (fun (name, art) ->
      let g = Topology.graph art in
      match Topology.routes art ~chaos:None with
      | None -> Alcotest.failf "%s: routes must compile" name
      | Some routes ->
          check_bool name true (routes.BP.table = reference_routes g ~root:0))
    [
      ("random-connected", Cache.random_connected ~seed:3 ~n:64 ~extra_edges:32);
      ("sweep-replica", Cache.sweep_replica ~seed:3 ~index:1 ~n:64);
      ("ring", Cache.ring ~n:64);
      ("path", Cache.path ~n:64);
      ("star", Cache.star ~n:64);
      ("complete", Cache.complete ~n:64);
      ("grid", Cache.grid ~rows:8 ~cols:8);
      ("torus", Cache.torus ~rows:8 ~cols:8);
      ("hypercube", Cache.hypercube ~dim:6);
      ("complete-binary-tree", Cache.complete_binary_tree ~depth:5);
    ]

let suite =
  [
    Alcotest.test_case "hit is physically shared" `Quick
      test_hit_is_physically_shared;
    Alcotest.test_case "cache stats published" `Quick test_stats_and_pp_stats;
    Alcotest.test_case "miss recompiles" `Quick test_miss_recompiles;
    Alcotest.test_case "matches direct builder" `Quick
      test_artifact_matches_direct_builder;
    Alcotest.test_case "sweep replica streams" `Quick
      test_sweep_replica_matches_sweep_streams;
    Alcotest.test_case "routes compiled once" `Quick test_routes_compiled_once;
    Alcotest.test_case "fault plan keeps routes" `Quick
      test_fault_plan_keeps_routes;
    Alcotest.test_case "chaos run ships routes" `Quick
      test_chaos_run_ships_routes;
    Alcotest.test_case "stale routes violate at-most-once" `Quick
      test_stale_routes_violate_at_most_once;
    Alcotest.test_case "precomputed parity" `Quick
      test_precomputed_routes_parity;
    Alcotest.test_case "recovering view broadcast pinned" `Quick
      test_recovering_view_broadcast_pinned;
    Alcotest.test_case "bpaths minor words per event" `Quick
      test_bpaths_words_per_event;
    Alcotest.test_case "election minor words per event" `Quick
      test_election_words_per_event;
    Alcotest.test_case "flooding minor words per event" `Quick
      test_flooding_words_per_event;
    Alcotest.test_case "heal minor words per syscall" `Quick
      test_heal_words_per_syscall;
    Alcotest.test_case "Network.create allocates O(1)" `Quick
      test_network_create_words;
    Alcotest.test_case "set-up minor words per node" `Quick
      test_setup_minor_words_per_node;
    Alcotest.test_case "a repeat broadcast allocates O(1) major words" `Quick
      test_repeat_broadcast_major_words;
    QCheck_alcotest.to_alcotest qcheck_routes_match_reference;
    QCheck_alcotest.to_alcotest qcheck_ack_route_matches_tree_walk;
    Alcotest.test_case "view routes equal the reference" `Quick
      test_view_routes_match_reference;
    Alcotest.test_case "cache routes equal the reference" `Quick
      test_cache_routes_match_reference;
  ]
