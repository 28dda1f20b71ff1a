(* Integration tests for the Section 3 broadcast algorithms on the
   simulated hardware: coverage, exact system-call counts, time bounds,
   failure behaviour. *)

module BC = Core.Broadcast
module BP = Core.Branching_paths
module FL = Core.Flooding
module DF = Core.Dfs_broadcast
module DI = Core.Direct_broadcast
module LA = Core.Layered_broadcast
module B = Netgraph.Builders
module G = Netgraph.Graph

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let graphs () =
  let rng = Sim.Rng.create ~seed:61 in
  [
    ("path16", B.path 16);
    ("ring12", B.ring 12);
    ("star20", B.star 20);
    ("grid4x5", B.grid ~rows:4 ~cols:5);
    ("binary31", B.complete_binary_tree ~depth:4);
    ("hypercube16", B.hypercube 4);
    ("rand40", B.random_connected rng ~n:40 ~extra_edges:25);
  ]

let test_all_algorithms_cover () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun (algo, run) ->
          let r = run ~graph:g ~root:0 () in
          check_bool (name ^ "/" ^ algo ^ " covers") true (BC.all_reached r))
        [
          ("bpaths", BP.run ?config:None ?multicast:None ?precomputed:None ?routes:None);
          ("flood", FL.run ?config:None);
          ("dfs", DF.run ?config:None);
          ("direct", DI.run ?config:None);
          ("layered", LA.run ?config:None);
        ])
    (graphs ())

let test_bpaths_exactly_n_syscalls () =
  List.iter
    (fun (name, g) ->
      let r = BP.run ~graph:g ~root:0 () in
      check_int (name ^ " n syscalls") (G.n g) r.BC.syscalls;
      check_int (name ^ " n-1 hops") (G.n g - 1) r.BC.hops)
    (graphs ())

let test_bpaths_time_bound () =
  (* completion within (1 + 1 + log2 n) * P: the root's trigger plus
     Theorem 2's path generations *)
  List.iter
    (fun (name, g) ->
      let r = BP.run ~graph:g ~root:0 () in
      let bound = 2.0 +. Sim.Stats.log2 (float_of_int (G.n g)) in
      check_bool (name ^ " within bound") true (r.BC.time <= bound +. 1e-9))
    (graphs ())

let test_bpaths_time_matches_prediction () =
  List.iter
    (fun (name, g) ->
      let r = BP.run ~graph:g ~root:0 () in
      let predicted =
        1 + BP.predicted_time_units (BP.tree_for ~view:g ~root:0)
      in
      check_int (name ^ " exact time") predicted (int_of_float r.BC.time))
    (graphs ())

let test_dfs_single_unit_time () =
  List.iter
    (fun (name, g) ->
      let r = DF.run ~graph:g ~root:0 () in
      check_int (name ^ " n syscalls") (G.n g) r.BC.syscalls;
      check_bool (name ^ " time 2P") true (r.BC.time <= 2.0))
    (graphs ())

let test_layered_single_unit_time () =
  List.iter
    (fun (name, g) ->
      let r = LA.run ~graph:g ~root:0 () in
      check_int (name ^ " n syscalls") (G.n g) r.BC.syscalls;
      check_bool (name ^ " time 2P") true (r.BC.time <= 2.0))
    (graphs ())

let test_layered_header_growth () =
  (* header length Theta(n * d) on a path: the dmax motivation *)
  let h16 = (LA.run ~graph:(B.path 16) ~root:0 ()).BC.max_header in
  let h32 = (LA.run ~graph:(B.path 32) ~root:0 ()).BC.max_header in
  check_bool "quadratic-ish growth" true (h32 > 3 * h16);
  let bp = BP.run ~graph:(B.path 32) ~root:0 () in
  check_bool "branching paths headers stay linear" true (bp.BC.max_header <= 32)

let test_flooding_syscalls_theta_m () =
  List.iter
    (fun (name, g) ->
      let r = FL.run ~graph:g ~root:0 () in
      (* every delivery is a syscall: at least one per edge endpoint
         direction except swallowed ones; certainly >= m and <= 2m + n *)
      check_bool (name ^ " >= m") true (r.BC.syscalls >= G.m g);
      check_bool (name ^ " <= 2m + n") true
        (r.BC.syscalls <= (2 * G.m g) + G.n g))
    (graphs ())

let test_direct_linear_time () =
  let g = B.path 24 in
  let r = DI.run ~graph:g ~root:0 () in
  check_bool "O(n) time on a path" true (r.BC.time >= 23.0);
  (* the root ships one packet per link per activation, so its
     activations are the rounds: n-1 on a path, one on a star; every
     other node is activated once, by its delivery *)
  check_int "rounds = n-1 on a path" (23 + 23) r.BC.syscalls;
  check_int "1 round on star" (1 + 23)
    (DI.run ~graph:(B.star 24) ~root:0 ()).BC.syscalls

let test_failure_truncates_not_kills_bpaths () =
  (* failing one link loses only downstream path nodes *)
  let g = B.path 8 in
  let config = { (BC.default_config ()) with failed = [ (3, 4) ] } in
  let r = BP.run ~config ~graph:g ~root:0 () in
  Alcotest.(check (array bool)) "prefix reached"
    [| true; true; true; true; false; false; false; false |]
    r.BC.reached

let test_failure_kills_dfs_token_downstream () =
  let g = B.path 8 in
  let config = { (BC.default_config ()) with failed = [ (3, 4) ] } in
  let r = DF.run ~config ~graph:g ~root:0 () in
  check_int "prefix only" 4 (BC.coverage r)

let test_flooding_routes_around_failure () =
  (* on a ring a single failed link cannot disconnect *)
  let g = B.ring 10 in
  let config = { (BC.default_config ()) with failed = [ (3, 4) ] } in
  let r = FL.run ~config ~graph:g ~root:0 () in
  check_bool "full coverage" true (BC.all_reached r)

let test_bpaths_one_way_under_many_failures () =
  (* whatever fails, nodes reachable through the tree prefix get it;
     nobody is reached twice (syscalls <= n) *)
  let rng = Sim.Rng.create ~seed:7 in
  for _ = 1 to 10 do
    let g = B.random_connected rng ~n:30 ~extra_edges:15 in
    let edges = G.edges g in
    let failed = List.filter (fun _ -> Sim.Rng.chance rng 0.2) edges in
    let config = { (BC.default_config ()) with failed } in
    let r = BP.run ~config ~graph:g ~root:0 () in
    check_bool "syscalls <= n" true (r.BC.syscalls <= G.n g);
    check_bool "root reached" true r.BC.reached.(0)
  done

let test_stale_view_broadcast () =
  (* the root believes a full graph but a link has failed: delivery is
     partial yet nothing crashes and no node is double-counted *)
  let g = B.grid ~rows:3 ~cols:3 in
  let config = { (BC.default_config ()) with failed = [ (0, 1); (3, 4) ] } in
  let r = BP.run ~config ~graph:g ~root:0 () in
  check_bool "partial coverage" true (BC.coverage r < 9);
  check_bool "syscalls <= n" true (r.BC.syscalls <= 9)

let test_random_delays_still_cover () =
  let rng = Sim.Rng.create ~seed:99 in
  let g = B.random_connected rng ~n:25 ~extra_edges:10 in
  let cost = Hardware.Cost_model.uniform_random rng ~c:0.5 ~p:1.0 in
  let config = { (BC.default_config ()) with cost } in
  List.iter
    (fun r -> check_bool "asynchronous coverage" true (BC.all_reached r))
    [
      BP.run ~config ~graph:g ~root:0 ();
      FL.run ~config ~graph:g ~root:0 ();
      DF.run ~config ~graph:g ~root:0 ();
      DI.run ~config ~graph:g ~root:0 ();
      LA.run ~config ~graph:g ~root:0 ();
    ]

let test_nontrivial_roots () =
  let g = B.grid ~rows:4 ~cols:4 in
  List.iter
    (fun root ->
      let r = BP.run ~graph:g ~root () in
      check_bool "covers from any root" true (BC.all_reached r);
      check_int "n syscalls from any root" 16 r.BC.syscalls)
    [ 0; 5; 15; 10 ]

let test_multicast_ablation () =
  (* without the multicast primitive the star takes Theta(n) time but
     still delivers everywhere exactly once *)
  let g = B.star 32 in
  let fast = BP.run ~graph:g ~root:0 () in
  let slow = BP.run ~multicast:false ~graph:g ~root:0 () in
  check_bool "both cover" true (BC.all_reached fast && BC.all_reached slow);
  check_bool "fast is 2P" true (fast.BC.time <= 2.0);
  check_bool "slow is ~n" true (slow.BC.time >= 31.0);
  check_int "deliveries unchanged" (BC.coverage fast) (BC.coverage slow)

let test_scale_1024 () =
  (* the bounds hold at a thousand nodes too *)
  let rng = Sim.Rng.create ~seed:4096 in
  let g = B.random_connected rng ~n:1024 ~extra_edges:512 in
  let r = BP.run ~graph:g ~root:0 () in
  check_bool "covers" true (BC.all_reached r);
  check_int "n syscalls" 1024 r.BC.syscalls;
  check_bool "log time" true (r.BC.time <= 2.0 +. Sim.Stats.log2 1024.0)

let test_layered_refused_under_dmax () =
  (* under a live dmax = n the layered token cannot be injected at all *)
  let g = B.path 16 in
  let config = { (BC.default_config ()) with dmax = Some 16 } in
  check_bool "raises under the default policy" true
    (try ignore (LA.run ~config ~graph:g ~root:0 ()); false
     with Invalid_argument _ -> true)

let qcheck_bpaths_failure_coverage_differential =
  (* independent reference: a node receives the broadcast iff no edge
     on its tree path from the root failed (every route into a subtree
     crosses its tree edge, and the broadcast is one-way) *)
  QCheck.Test.make
    ~name:"bpaths coverage under failures = tree-path reachability" ~count:80
    QCheck.(pair (int_range 2 30) (int_range 0 100_000))
    (fun (n, seed) ->
      let rng = Sim.Rng.create ~seed in
      let g = B.random_connected rng ~n ~extra_edges:(n / 3) in
      let failed =
        List.filter (fun _ -> Sim.Rng.chance rng 0.25) (G.edges g)
      in
      let config = { (BC.default_config ()) with failed } in
      let r = BP.run ~config ~graph:g ~root:0 () in
      let tree = BP.tree_for ~view:g ~root:0 in
      let edge_failed u v =
        List.mem (min u v, max u v) failed
      in
      let expected v =
        let path = Netgraph.Tree.path_from_root tree v in
        let rec ok = function
          | a :: (b :: _ as rest) -> (not (edge_failed a b)) && ok rest
          | _ -> true
        in
        ok path
      in
      List.for_all (fun v -> r.BC.reached.(v) = expected v) (List.init n Fun.id))

let qcheck_bpaths_invariants =
  QCheck.Test.make ~name:"branching paths: n syscalls, full coverage" ~count:60
    QCheck.(pair (int_range 2 40) (int_range 0 1000))
    (fun (n, seed) ->
      let rng = Sim.Rng.create ~seed in
      let g = B.random_connected rng ~n ~extra_edges:(n / 3) in
      let root = Sim.Rng.int rng n in
      let r = BP.run ~graph:g ~root () in
      BC.all_reached r && r.BC.syscalls = n && r.BC.hops = n - 1)

let suite =
  [
    Alcotest.test_case "all algorithms cover" `Quick test_all_algorithms_cover;
    Alcotest.test_case "bpaths exactly n syscalls" `Quick test_bpaths_exactly_n_syscalls;
    Alcotest.test_case "bpaths time bound" `Quick test_bpaths_time_bound;
    Alcotest.test_case "bpaths time = prediction" `Quick test_bpaths_time_matches_prediction;
    Alcotest.test_case "dfs single unit" `Quick test_dfs_single_unit_time;
    Alcotest.test_case "layered single unit" `Quick test_layered_single_unit_time;
    Alcotest.test_case "layered header growth" `Quick test_layered_header_growth;
    Alcotest.test_case "flooding Theta(m)" `Quick test_flooding_syscalls_theta_m;
    Alcotest.test_case "direct linear time" `Quick test_direct_linear_time;
    Alcotest.test_case "failure truncates bpaths" `Quick test_failure_truncates_not_kills_bpaths;
    Alcotest.test_case "failure kills dfs downstream" `Quick test_failure_kills_dfs_token_downstream;
    Alcotest.test_case "flooding routes around" `Quick test_flooding_routes_around_failure;
    Alcotest.test_case "bpaths one-way under failures" `Quick test_bpaths_one_way_under_many_failures;
    Alcotest.test_case "stale view broadcast" `Quick test_stale_view_broadcast;
    Alcotest.test_case "random delays still cover" `Quick test_random_delays_still_cover;
    Alcotest.test_case "nontrivial roots" `Quick test_nontrivial_roots;
    Alcotest.test_case "multicast ablation" `Quick test_multicast_ablation;
    Alcotest.test_case "scale n=1024" `Slow test_scale_1024;
    Alcotest.test_case "layered refused under dmax" `Quick test_layered_refused_under_dmax;
    QCheck_alcotest.to_alcotest qcheck_bpaths_failure_coverage_differential;
    QCheck_alcotest.to_alcotest qcheck_bpaths_invariants;
  ]
