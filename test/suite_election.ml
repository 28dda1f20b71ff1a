(* Tests for Core.Election: Theorem 4 (correctness) and Theorem 5
   (system-call complexity <= 6n), across topologies and schedules. *)

module E = Core.Election
module B = Netgraph.Builders
module G = Netgraph.Graph

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let assert_valid_outcome g (o : E.outcome) =
  let n = G.n g in
  check_bool "everyone learns the leader" true
    (Array.for_all (fun b -> b = Some o.leader) o.believed_leader);
  check_bool "Theorem 5: <= 6n election syscalls" true
    (o.election_syscalls <= 6 * n);
  check_int "n-1 captures" (n - 1) o.captures;
  check_bool "announce <= n" true (o.announce_syscalls <= n)

let test_singleton () =
  let g = G.of_edges ~n:1 [] in
  let o = E.run ~graph:g () in
  check_int "self leader" 0 o.E.leader

let test_two_nodes () =
  let g = B.path 2 in
  let o = E.run ~graph:g () in
  assert_valid_outcome g o

let test_topologies () =
  List.iter
    (fun g -> assert_valid_outcome g (E.run ~graph:g ()))
    [
      B.path 17;
      B.ring 16;
      B.star 20;
      B.grid ~rows:5 ~cols:5;
      B.complete 15;
      B.hypercube 4;
      B.complete_binary_tree ~depth:4;
      B.caterpillar ~spine:6 ~legs:3;
      B.torus ~rows:4 ~cols:4;
    ]

let test_disconnected_rejected () =
  let g = G.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  check_bool "raises" true
    (try ignore (E.run ~graph:g ()); false with Invalid_argument _ -> true)

let test_empty_starters_rejected () =
  check_bool "raises" true
    (try ignore (E.run ~starters:[] ~graph:(B.path 3) ()); false
     with Invalid_argument _ -> true)

let test_single_starter () =
  (* nodes join when first touched by the algorithm *)
  let g = B.ring 12 in
  let o = E.run ~starters:[ 5 ] ~graph:g () in
  assert_valid_outcome g o

let test_two_starters () =
  let g = B.grid ~rows:4 ~cols:4 in
  let o = E.run ~starters:[ 0; 15 ] ~graph:g () in
  assert_valid_outcome g o

let test_random_schedules () =
  let rng = Sim.Rng.create ~seed:1001 in
  for _ = 1 to 20 do
    let g = B.random_connected rng ~n:30 ~extra_edges:15 in
    let o = E.run ~rng ~graph:g () in
    assert_valid_outcome g o
  done

let test_random_delays () =
  (* asynchrony: uniform random software delays must not affect
     correctness or the message bound *)
  let rng = Sim.Rng.create ~seed:2002 in
  for _ = 1 to 10 do
    let g = B.random_connected rng ~n:25 ~extra_edges:10 in
    let cost = Hardware.Cost_model.uniform_random rng ~c:0.3 ~p:1.0 in
    let o = E.run ~cost ~rng ~graph:g () in
    assert_valid_outcome g o
  done

let test_deterministic_repeatability () =
  let g = B.grid ~rows:4 ~cols:5 in
  let o1 = E.run ~graph:g () and o2 = E.run ~graph:g () in
  check_int "same leader" o1.E.leader o2.E.leader;
  check_int "same cost" o1.E.election_syscalls o2.E.election_syscalls

let test_linear_growth () =
  (* per-node election cost stays bounded as n grows (Theta(n) total) *)
  let cost_per_node n =
    let o = E.run ~graph:(B.ring n) () in
    float_of_int o.E.election_syscalls /. float_of_int n
  in
  let small = cost_per_node 16 and large = cost_per_node 256 in
  check_bool "no super-linear drift" true (large <= small +. 1.0)

let test_time_linear () =
  let o = E.run ~graph:(B.path 64) () in
  check_bool "O(n) time" true (o.E.time <= 6.0 *. 64.0)

let test_max_route_linear () =
  (* direct-message routes concatenate two linear ANRs: <= 2n hops *)
  let rng = Sim.Rng.create ~seed:3003 in
  for _ = 1 to 10 do
    let g = B.random_connected rng ~n:40 ~extra_edges:20 in
    let o = E.run ~rng ~graph:g () in
    check_bool "max route <= 2n" true (o.E.max_route <= 80)
  done

let test_tours_bounded () =
  (* every candidate ends with one unsuccessful tour at most, and a
     capture consumes a domain: tours <= 2n *)
  let g = B.grid ~rows:6 ~cols:6 in
  let o = E.run ~graph:g () in
  check_bool "tours <= 2n" true (o.E.tours <= 72)

let test_spanning_tree_byproduct () =
  let rng = Sim.Rng.create ~seed:404 in
  for _ = 1 to 10 do
    let g = B.random_connected rng ~n:25 ~extra_edges:12 in
    let o = E.run ~rng ~graph:g () in
    let tree = Lazy.force o.E.spanning_tree in
    check_bool "leader's INOUT tree spans the network" true
      (Suite_tree.spans tree g);
    check_int "rooted at the leader" o.E.leader (Netgraph.Tree.root tree)
  done

let test_leader_tree_carries_broadcast () =
  (* the Section 3 + Section 4 composition: after the election, the
     leader broadcasts over its INOUT spanning tree in n syscalls *)
  let g = B.grid ~rows:5 ~cols:5 in
  let o = E.run ~graph:g () in
  let tree_view =
    G.of_edges ~n:(G.n g) (Netgraph.Tree.edges (Lazy.force o.E.spanning_tree))
  in
  let config =
    { (Core.Broadcast.default_config ()) with view = Some tree_view }
  in
  let r = Core.Branching_paths.run ~config ~graph:g ~root:o.E.leader () in
  check_bool "covers everyone" true (Core.Broadcast.all_reached r);
  check_int "n syscalls over the leader's tree" 25 r.Core.Broadcast.syscalls

(* every labelled connected graph on 4 nodes (38 of them) x every
   non-empty starter subset: exhaustive small-case model check *)
let test_exhaustive_four_nodes () =
  let all_pairs = [ (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3) ] in
  let graphs = ref 0 and runs = ref 0 in
  for mask = 0 to 63 do
    let edges =
      List.filteri (fun i _ -> mask land (1 lsl i) <> 0) all_pairs
    in
    let g = G.of_edges ~n:4 edges in
    if G.is_connected g then begin
      incr graphs;
      for starter_mask = 1 to 15 do
        let starters =
          List.filter (fun v -> starter_mask land (1 lsl v) <> 0) [ 0; 1; 2; 3 ]
        in
        let o = E.run ~starters ~graph:g () in
        incr runs;
        check_bool "unique leader, all informed" true
          (Array.for_all (fun b -> b = Some o.E.leader) o.believed_leader);
        check_bool "<= 6n" true (o.E.election_syscalls <= 24);
        check_int "3 captures" 3 o.E.captures
      done
    end
  done;
  check_int "38 connected labelled graphs on 4 nodes" 38 !graphs;
  check_int "38 * 15 runs" (38 * 15) !runs

let test_scale_1024 () =
  let rng = Sim.Rng.create ~seed:2048 in
  let g = B.random_connected rng ~n:1024 ~extra_edges:512 in
  let o = E.run ~graph:g () in
  check_bool "<= 6n at scale" true (o.E.election_syscalls <= 6 * 1024);
  check_bool "all informed" true
    (Array.for_all (fun b -> b = Some o.E.leader) o.believed_leader)

let qcheck_election_valid =
  QCheck.Test.make ~name:"election: unique leader, <= 6n syscalls" ~count:50
    QCheck.(pair (int_range 2 40) (int_range 0 100_000))
    (fun (n, seed) ->
      let rng = Sim.Rng.create ~seed in
      let g = B.random_connected rng ~n ~extra_edges:(n / 2) in
      let o = E.run ~rng ~graph:g () in
      Array.for_all (fun b -> b = Some o.E.leader) o.believed_leader
      && o.election_syscalls <= 6 * n
      && o.captures = n - 1)

let qcheck_partial_start =
  QCheck.Test.make ~name:"election correct with random starter sets" ~count:50
    QCheck.(pair (int_range 3 25) (int_range 0 100_000))
    (fun (n, seed) ->
      let rng = Sim.Rng.create ~seed in
      let g = B.random_connected rng ~n ~extra_edges:(n / 3) in
      let starters =
        List.filter (fun _ -> Sim.Rng.bool rng) (List.init n Fun.id)
      in
      let starters = if starters = [] then [ 0 ] else starters in
      let o = E.run ~rng ~starters ~graph:g () in
      Array.for_all (fun b -> b = Some o.E.leader) o.believed_leader
      && o.election_syscalls <= 6 * n)

(* Safety under faults: a candidate crash mid-election strands every
   live tour below level (n, v) — no node can complete a tour of all n
   nodes — so liveness is forfeited (no leader) but at-most-one-leader
   holds and nobody announces a ghost.  The costs are pinned: the
   fault schedule is deterministic, so any drift in these numbers is a
   semantic change to the runtime, not noise. *)
let test_candidate_crash_mid_run () =
  let g = B.ring 8 in
  let chaos = [ Hardware.Fault_plan.Node_set { at = 2.5; node = 3; alive = false } ] in
  let o = E.run_chaos ~chaos ~graph:g () in
  check_int "no leader declared" 0 (List.length o.E.leaders);
  check_bool "at most one leader" true (List.length o.E.leaders <= 1);
  check_bool "nobody believes in a ghost leader" true
    (Array.for_all (( = ) None) o.E.believed);
  check_int "pinned deliveries" 18 o.E.election_deliveries;
  check_int "pinned syscalls" 30 o.E.chaos_syscalls

let test_crash_after_declaration () =
  (* crashing once the election has quiesced must not retract the
     declared leader or its announcements *)
  let g = B.ring 8 in
  let chaos = [ Hardware.Fault_plan.Node_set { at = 20.0; node = 3; alive = false } ] in
  let o = E.run_chaos ~chaos ~graph:g () in
  (match o.E.leaders with
  | [ leader ] ->
      Array.iteri
        (fun v b ->
          if v <> 3 then
            check_bool (Printf.sprintf "node %d believes the leader" v) true
              (b = Some leader))
        o.E.believed
  | l -> Alcotest.failf "expected a unique leader, got %d" (List.length l));
  check_int "pinned deliveries" 33 o.E.election_deliveries;
  check_int "pinned syscalls" 52 o.E.chaos_syscalls

(* Byte-level pins of the whole election: the JSONL trace renders every
   syscall, send, hop and delivery with its time, so any change to a
   route (tour, walk home or the announcement's first-visit copies) or
   to event order moves the digest. *)
let trace_digest graph =
  let trace = Sim.Trace.create () in
  ignore (E.run ~trace ~graph () : E.outcome);
  Digest.to_hex (Digest.string (Sim.Trace_export.jsonl trace))

let test_trace_digests () =
  Alcotest.(check string) "ring 32" "946156d5021c0160ae9fe9b9ee2ed15d" (trace_digest (B.ring 32));
  let n = 64 in
  let g = B.random_connected (Sim.Rng.create ~seed:1) ~n ~extra_edges:(n / 2) in
  Alcotest.(check string) "random n=64 seed 1" "7ee4ea2061547525d0fe1cbec12db9da" (trace_digest g)

let suite =
  [
    Alcotest.test_case "singleton" `Quick test_singleton;
    Alcotest.test_case "two nodes" `Quick test_two_nodes;
    Alcotest.test_case "topologies" `Quick test_topologies;
    Alcotest.test_case "disconnected rejected" `Quick test_disconnected_rejected;
    Alcotest.test_case "empty starters rejected" `Quick test_empty_starters_rejected;
    Alcotest.test_case "single starter" `Quick test_single_starter;
    Alcotest.test_case "two starters" `Quick test_two_starters;
    Alcotest.test_case "random schedules" `Quick test_random_schedules;
    Alcotest.test_case "random delays" `Quick test_random_delays;
    Alcotest.test_case "deterministic repeatability" `Quick test_deterministic_repeatability;
    Alcotest.test_case "linear growth" `Quick test_linear_growth;
    Alcotest.test_case "time linear" `Quick test_time_linear;
    Alcotest.test_case "max route linear" `Quick test_max_route_linear;
    Alcotest.test_case "tours bounded" `Quick test_tours_bounded;
    Alcotest.test_case "spanning tree by-product" `Quick test_spanning_tree_byproduct;
    Alcotest.test_case "leader tree carries broadcast" `Quick test_leader_tree_carries_broadcast;
    Alcotest.test_case "exhaustive 4-node graphs" `Quick test_exhaustive_four_nodes;
    Alcotest.test_case "scale n=1024" `Slow test_scale_1024;
    Alcotest.test_case "candidate crash mid-run" `Quick
      test_candidate_crash_mid_run;
    Alcotest.test_case "crash after declaration" `Quick
      test_crash_after_declaration;
    Alcotest.test_case "trace digests pinned" `Quick test_trace_digests;
    QCheck_alcotest.to_alcotest qcheck_election_valid;
    QCheck_alcotest.to_alcotest qcheck_partial_start;
  ]
