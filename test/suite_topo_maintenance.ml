(* Integration tests for Core.Topo_maintenance: Theorem 1 (eventual
   consistency), the Section 3 non-convergence example, and the
   convergence-speed comment. *)

module TM = Core.Topo_maintenance
module FP = Hardware.Fault_plan
module B = Netgraph.Builders

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let base = TM.default_params

let test_static_convergence_branching () =
  let g = B.grid ~rows:3 ~cols:4 in
  let o = TM.run ~graph:g ~events:[] () in
  check_bool "converged" true o.TM.converged;
  check_bool "within diameter+1 rounds" true
    (o.TM.rounds <= Netgraph.Paths.diameter g + 1)

let test_static_convergence_flood () =
  let g = B.ring 10 in
  let p = { (base ()) with method_ = TM.Flood } in
  let o = TM.run ~params:p ~graph:g ~events:[] () in
  check_bool "converged" true o.TM.converged

let test_static_convergence_dfs () =
  (* without failures even the depth-first token converges *)
  let g = B.ring 10 in
  let p = { (base ()) with method_ = TM.Dfs_token } in
  let o = TM.run ~params:p ~graph:g ~events:[] () in
  check_bool "converged" true o.TM.converged

let test_full_view_speedup () =
  let g = B.path 32 in
  let slow = TM.run ~params:{ (base ()) with max_rounds = 40 } ~graph:g ~events:[] () in
  let fast =
    TM.run ~params:{ (base ()) with full_view = true; max_rounds = 40 }
      ~graph:g ~events:[] ()
  in
  check_bool "both converge" true (slow.TM.converged && fast.TM.converged);
  (* O(d) vs O(log d): on a path of diameter 31 the gap is large *)
  check_bool "full view much faster" true (fast.TM.rounds * 3 <= slow.TM.rounds);
  check_bool "own-view needs ~diameter rounds" true (slow.TM.rounds >= 15)

let test_branching_syscalls_per_round () =
  (* each broadcast costs n syscalls: per round, n origins * n *)
  let g = B.ring 8 in
  let p = { (base ()) with preseed = true; max_rounds = 3 } in
  let o = TM.run ~params:p ~graph:g ~events:[] () in
  check_bool "converged immediately" true (o.TM.converged && o.TM.rounds = 1);
  (* one round: 8 timers + 8*7 copies = 64 = n^2 *)
  check_int "n^2 syscalls in round 1" 64 o.TM.syscalls

let test_failure_convergence_branching () =
  let g = B.grid ~rows:4 ~cols:4 in
  let events =
    [ { TM.at = 10.0; edge = (5, 6); up = false };
      { TM.at = 15.0; edge = (9, 10); up = false } ]
  in
  let p = { (base ()) with preseed = true } in
  let o = TM.run ~params:p ~graph:g ~events () in
  check_bool "converged after failures" true o.TM.converged

let test_partition_convergence () =
  (* cutting a path in two: each side must converge on its component *)
  let g = B.path 10 in
  let events = [ { TM.at = 5.0; edge = (4, 5); up = false } ] in
  let p = { (base ()) with preseed = true; max_rounds = 30 } in
  let o = TM.run ~params:p ~graph:g ~events () in
  check_bool "both components converge" true o.TM.converged

let test_link_recovery () =
  let g = B.ring 8 in
  let events =
    [ { TM.at = 5.0; edge = (0, 1); up = false };
      { TM.at = 200.0; edge = (0, 1); up = true } ]
  in
  let p = { (base ()) with preseed = true; max_rounds = 40 } in
  let o = TM.run ~params:p ~graph:g ~events () in
  check_bool "converged after recovery" true o.TM.converged

let test_deadlock_example_dfs () =
  (* the Section 3 example: with the cyclic tour order the depth-first
     method never converges *)
  let g, pendants = TM.deadlock_example_graph () in
  let events =
    List.map (fun edge -> { TM.at = 1.0; edge; up = false }) pendants
  in
  let p =
    {
      (base ()) with
      method_ = TM.Dfs_token;
      preseed = true;
      max_rounds = 24;
      dfs_child_order =
        Some
          (fun ~self ~children ->
            TM.cyclic_child_order ~ring:[ 0; 1; 2 ] ~self ~children);
    }
  in
  let o = TM.run ~params:p ~graph:g ~events () in
  check_bool "never converges" false o.TM.converged;
  (* the three isolated pendants are trivially consistent; the triangle
     nodes stay wrong forever *)
  List.iter (fun c -> check_int "stuck at 3 of 6" 3 c) o.TM.correct_per_round

let test_deadlock_example_branching_converges () =
  let g, pendants = TM.deadlock_example_graph () in
  let events =
    List.map (fun edge -> { TM.at = 1.0; edge; up = false }) pendants
  in
  let p = { (base ()) with preseed = true; max_rounds = 24 } in
  let o = TM.run ~params:p ~graph:g ~events () in
  check_bool "one-way broadcast converges" true o.TM.converged;
  check_bool "quickly" true (o.TM.rounds <= 3)

let test_deadlock_example_flood_converges () =
  let g, pendants = TM.deadlock_example_graph () in
  let events =
    List.map (fun edge -> { TM.at = 1.0; edge; up = false }) pendants
  in
  let p = { (base ()) with method_ = TM.Flood; preseed = true; max_rounds = 24 } in
  let o = TM.run ~params:p ~graph:g ~events () in
  check_bool "flooding converges" true o.TM.converged

let test_progress_monotone_static () =
  let g = B.path 12 in
  let o = TM.run ~params:{ (base ()) with max_rounds = 30 } ~graph:g ~events:[] () in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  check_bool "knowledge only grows without changes" true
    (monotone o.TM.correct_per_round)

let test_node_failure_convergence () =
  (* a whole node dies: the survivors and the dead node each converge
     on their own component *)
  let g = B.grid ~rows:4 ~cols:4 in
  let p = { (base ()) with preseed = true; max_rounds = 30 } in
  let chaos = [ FP.Node_set { at = 5.0; node = 5; alive = false } ] in
  let o = TM.run ~params:p ~chaos ~graph:g ~events:[] () in
  check_bool "converged after node failure" true o.TM.converged

let test_node_failure_and_recovery () =
  let g = B.ring 8 in
  let p = { (base ()) with preseed = true; max_rounds = 40 } in
  let chaos =
    [
      FP.Node_set { at = 5.0; node = 3; alive = false };
      FP.Node_set { at = 300.0; node = 3; alive = true };
    ]
  in
  let o = TM.run ~params:p ~chaos ~graph:g ~events:[] () in
  check_bool "converged after recovery" true o.TM.converged

let test_dmax_kills_dfs_but_not_branching () =
  (* with dmax = n the depth-first token (tour up to ~2n elements)
     cannot even be sent on a path graph, so DFS maintenance cannot
     converge; branching paths (headers <= n) is unaffected *)
  let g = B.path 12 in
  let dmax = Some 12 in
  let p_dfs =
    { (base ()) with method_ = TM.Dfs_token; dmax; max_rounds = 16 }
  in
  let o_dfs = TM.run ~params:p_dfs ~graph:g ~events:[] () in
  check_bool "dfs cannot run under dmax = n" false o_dfs.TM.converged;
  let p_bp = { (base ()) with dmax; max_rounds = 30 } in
  let o_bp = TM.run ~params:p_bp ~graph:g ~events:[] () in
  check_bool "branching paths fine under dmax = n" true o_bp.TM.converged

let test_async_delays_converge () =
  (* correctness must not depend on the worst-case delays: random
     per-hop and per-syscall delays still converge *)
  let rng = Sim.Rng.create ~seed:909 in
  let g = B.random_connected rng ~n:16 ~extra_edges:8 in
  let cost = Hardware.Cost_model.uniform_random rng ~c:0.4 ~p:1.0 in
  let p = { (base ()) with cost; max_rounds = 40 } in
  let o = TM.run ~params:p ~graph:g ~events:[] () in
  check_bool "asynchronous convergence" true o.TM.converged

let test_staggered_periods_converge () =
  (* nodes broadcasting out of lockstep (random phase offsets) still
     reach eventual consistency *)
  let rng = Sim.Rng.create ~seed:515 in
  let g = B.grid ~rows:4 ~cols:4 in
  let p = { (base ()) with stagger = Some rng; max_rounds = 40 } in
  let o = TM.run ~params:p ~graph:g ~events:[] () in
  check_bool "staggered convergence" true o.TM.converged;
  let events = [ { TM.at = 70.0; edge = (5, 6); up = false } ] in
  let p2 = { (base ()) with stagger = Some rng; preseed = true; max_rounds = 40 } in
  let o2 = TM.run ~params:p2 ~graph:g ~events () in
  check_bool "staggered reconvergence after failure" true o2.TM.converged

let test_cyclic_child_order () =
  Alcotest.(check (list int)) "successor first"
    [ 2; 0; 4 ]
    (TM.cyclic_child_order ~ring:[ 0; 1; 2 ] ~self:1 ~children:[ 0; 2; 4 ]);
  Alcotest.(check (list int)) "non-ring self unchanged"
    [ 0; 2; 4 ]
    (TM.cyclic_child_order ~ring:[ 0; 1; 2 ] ~self:9 ~children:[ 0; 2; 4 ])

let test_scale_100_with_failures () =
  let rng = Sim.Rng.create ~seed:100 in
  let g = B.random_connected rng ~n:100 ~extra_edges:60 in
  let events =
    List.filteri (fun i _ -> i < 8)
      (List.map (fun e -> { TM.at = 10.0; edge = e; up = false })
         (Netgraph.Graph.edges g))
  in
  let p = { (base ()) with preseed = true; max_rounds = 40 } in
  let o = TM.run ~params:p ~graph:g ~events () in
  check_bool "scale convergence" true o.TM.converged

let qcheck_random_failures_converge =
  QCheck.Test.make ~name:"branching maintenance converges under random failures"
    ~count:20
    QCheck.(pair (int_range 4 16) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Sim.Rng.create ~seed in
      let g = B.random_connected rng ~n ~extra_edges:n in
      let edges = Netgraph.Graph.edges g in
      let events =
        List.filter_map
          (fun e ->
            if Sim.Rng.chance rng 0.25 then
              Some { TM.at = Sim.Rng.float rng 50.0; edge = e; up = false }
            else None)
          edges
      in
      let p = { (base ()) with preseed = true; max_rounds = 48 } in
      let o = TM.run ~params:p ~graph:g ~events () in
      o.TM.converged)

(* A recovering NCU with [reset_on_recover] rejoins with empty remote
   knowledge (only its own view and its surviving sequence counter) —
   the paper's amnesiac-recovery assumption.  Node 3 dies right after
   the first broadcast wave and comes back at t=50, between that wave
   and the next one (period 64), so at the single round's check its
   database holds its own view alone under reset, while without reset
   the preseeded world-view lingers untouched through the outage. *)
let outage_events =
  [
    FP.Node_set { at = 1.0; node = 3; alive = false };
    FP.Node_set { at = 50.0; node = 3; alive = true };
  ]

let test_reset_on_recover_forgets () =
  let g, _ = TM.deadlock_example_graph () in
  let run ~reset =
    let p =
      { (base ()) with preseed = true; max_rounds = 1; reset_on_recover = reset }
    in
    TM.run ~params:p ~chaos:outage_events ~graph:g ~events:[] ()
  in
  let with_reset = run ~reset:true and without = run ~reset:false in
  check_int "reset: only its own view" 1
    (List.length (Core.Topology.all_views with_reset.TM.dbs.(3)));
  check_int "no reset: stale world-view survives" 6
    (List.length (Core.Topology.all_views without.TM.dbs.(3)))

let test_reset_on_recover_reconverges () =
  (* given rounds after the recovery, the periodic broadcasts refill
     the wiped database and the system reaches consistency again *)
  let g, _ = TM.deadlock_example_graph () in
  let p =
    { (base ()) with preseed = true; max_rounds = 8; reset_on_recover = true }
  in
  let o = TM.run ~params:p ~chaos:outage_events ~graph:g ~events:[] () in
  check_bool "reconverged" true o.TM.converged;
  check_int "relearned every node" 6
    (List.length (Core.Topology.all_views o.TM.dbs.(3)))

(* -- outcome golden ---------------------------------------------------- *)

(* The protocol's observable fixed point over a matrix of modes: every
   broadcast method crossed with preseed, full-view, staggered and
   restricted-origin runs, a link that fails and recovers, a partition
   (whose check needs the component-restricted comparison), and a node
   crash/recovery with reset and round resumption.  Each line records
   syscalls, hops, the final time in hex-float, rounds and the
   per-round consistent-node counts; any change to what the protocol
   sends, when, or how convergence is judged moves a line. *)
let outcome_line name (o : TM.outcome) =
  Printf.sprintf "%s: conv=%b rounds=%d sys=%d hops=%d time=%h correct=%s" name
    o.TM.converged o.TM.rounds o.TM.syscalls o.TM.hops o.TM.time
    (String.concat "," (List.map string_of_int o.TM.correct_per_round))

let golden_outcomes () =
  let methods =
    [ ("bpaths", TM.Branching); ("flood", TM.Flood); ("dfs", TM.Dfs_token) ]
  in
  let rand = B.random_connected (Sim.Rng.create ~seed:7) ~n:12 ~extra_edges:6 in
  let grid = B.grid ~rows:3 ~cols:4 in
  let path = B.path 10 in
  let link ~at edge up = { TM.at; edge; up } in
  let scenarios meth =
    let p = { (base ()) with method_ = meth; max_rounds = 16 } in
    [
      ("cold", p, rand, [], []);
      ( "preseed-cut",
        { p with preseed = true },
        rand,
        [ link ~at:5.0 (0, List.hd (Netgraph.Graph.neighbors rand 0)) false ],
        [] );
      ( "full-view-down-up",
        { p with full_view = true },
        grid,
        [ link ~at:5.0 (1, 2) false; link ~at:150.0 (1, 2) true ],
        [] );
      ( "stagger",
        { p with preseed = true; stagger = Some (Sim.Rng.create ~seed:515) },
        grid,
        [ link ~at:70.0 (5, 6) false ],
        [] );
      ( "origins",
        { p with preseed = true; origins = Some [ 0; 7 ] },
        rand,
        [ link ~at:5.0 (0, List.hd (Netgraph.Graph.neighbors rand 0)) false ],
        [] );
      ( "partition",
        { p with preseed = true },
        path,
        [ link ~at:5.0 (4, 5) false; link ~at:6.0 (7, 8) false ],
        [] );
      ( "crash-reset-recover",
        {
          p with
          preseed = true;
          reset_on_recover = true;
          recover = Some (Hardware.Recover.default ~n:12);
        },
        grid,
        [],
        [
          FP.Node_set { at = 1.0; node = 5; alive = false };
          FP.Node_set { at = 90.0; node = 5; alive = true };
        ] );
    ]
  in
  List.concat_map
    (fun (mname, meth) ->
      List.map
        (fun (sname, params, graph, events, chaos) ->
          outcome_line (mname ^ "/" ^ sname)
            (TM.run ~params ~chaos ~graph ~events ()))
        (scenarios meth))
    methods

let expected_outcomes =
  [
    "bpaths/cold: conv=true rounds=4 sys=424 hops=376 time=0x1.ffffffde7210cp+7 correct=0,2,11,12";
    "bpaths/preseed-cut: conv=true rounds=2 sys=276 hops=250 time=0x1.ffffffbce4218p+6 correct=2,12";
    "bpaths/full-view-down-up: conv=true rounds=4 sys=418 hops=366 time=0x1.ffffffde7210cp+7 correct=0,6,0,12";
    "bpaths/stagger: conv=true rounds=1 sys=144 hops=121 time=0x1.ffffff79c843p+5 correct=12";
    "bpaths/origins: conv=true rounds=1 sys=36 hops=22 time=0x1.ffffff79c843p+5 correct=12";
    "bpaths/partition: conv=true rounds=2 sys=142 hops=118 time=0x1.ffffffbce4218p+6 correct=2,10";
    "bpaths/crash-reset-recover: conv=true rounds=4 sys=526 hops=461 time=0x1.ffffffde7210cp+7 correct=11,0,11,12";
    "flood/cold: conv=true rounds=1 sys=288 hops=276 time=0x1.ffffff79c843p+5 correct=12";
    "flood/preseed-cut: conv=true rounds=2 sys=539 hops=513 time=0x1.ffffffbce4218p+6 correct=2,12";
    "flood/full-view-down-up: conv=true rounds=2 sys=541 hops=515 time=0x1.ffffffbce4218p+6 correct=2,12";
    "flood/stagger: conv=true rounds=1 sys=276 hops=253 time=0x1.ffffff79c843p+5 correct=12";
    "flood/origins: conv=true rounds=1 sys=60 hops=46 time=0x1.ffffff79c843p+5 correct=12";
    "flood/partition: conv=true rounds=2 sys=111 hops=87 time=0x1.ffffffbce4218p+6 correct=2,10";
    "flood/crash-reset-recover: conv=true rounds=1 sys=196 hops=176 time=0x1.ffffff79c843p+5 correct=12";
    "dfs/cold: conv=true rounds=4 sys=424 hops=667 time=0x1.ffffffde7210cp+7 correct=0,2,11,12";
    "dfs/preseed-cut: conv=true rounds=2 sys=216 hops=330 time=0x1.ffffffbce4218p+6 correct=2,12";
    "dfs/full-view-down-up: conv=true rounds=4 sys=399 hops=623 time=0x1.ffffffde7210cp+7 correct=0,4,0,12";
    "dfs/stagger: conv=true rounds=1 sys=144 hops=222 time=0x1.ffffff79c843p+5 correct=12";
    "dfs/origins: conv=true rounds=1 sys=36 hops=42 time=0x1.ffffff79c843p+5 correct=12";
    "dfs/partition: conv=true rounds=2 sys=141 hops=159 time=0x1.ffffffbce4218p+6 correct=2,10";
    "dfs/crash-reset-recover: conv=true rounds=3 sys=303 hops=433 time=0x1.7fffffde7210cp+7 correct=4,0,12";
  ]

let test_outcome_golden () =
  List.iter2 (Alcotest.(check string) "outcome") expected_outcomes
    (golden_outcomes ())

(* The all-origin allocation budget.  An untraced, registry-free
   preseeded run with a link cut before the first check, converging in
   round 2 (perfbench's [maintenance] shape), allocates a deterministic
   number of minor words per system call for a given binary: 104.0
   measured at n=64 with route tables compiled straight from the
   masked BFS, 183.6 when they went through a tree and a labelling,
   537.3 before the cached route tables and the believed-edge
   bitsets. *)
let words_per_syscall_bound = 114.0

let test_maintenance_words_per_syscall () =
  let n = 64 in
  let graph = B.random_connected (Sim.Rng.create ~seed:1) ~n ~extra_edges:(n / 2) in
  let period = 2.0 *. float_of_int n in
  let params = { (base ()) with period; max_rounds = 2; preseed = true } in
  let cut = (0, List.hd (Netgraph.Graph.neighbors graph 0)) in
  let events = [ { TM.at = period -. 1.0; edge = cut; up = false } ] in
  let run () = TM.run ~params ~graph ~events () in
  ignore (run ());
  let before = Gc.minor_words () in
  let o = run () in
  let words = Gc.minor_words () -. before in
  check_bool "converged in round 2" true (o.TM.converged && o.TM.rounds = 2);
  let per_syscall = words /. float_of_int o.TM.syscalls in
  if per_syscall > words_per_syscall_bound then
    Alcotest.failf "%.2f minor words per system call, bound %.1f" per_syscall
      words_per_syscall_bound

let suite =
  [
    Alcotest.test_case "static convergence (branching)" `Quick test_static_convergence_branching;
    Alcotest.test_case "static convergence (flood)" `Quick test_static_convergence_flood;
    Alcotest.test_case "static convergence (dfs)" `Quick test_static_convergence_dfs;
    Alcotest.test_case "full view speedup" `Quick test_full_view_speedup;
    Alcotest.test_case "n^2 syscalls per round" `Quick test_branching_syscalls_per_round;
    Alcotest.test_case "failures converge (branching)" `Quick test_failure_convergence_branching;
    Alcotest.test_case "partition converges" `Quick test_partition_convergence;
    Alcotest.test_case "link recovery" `Quick test_link_recovery;
    Alcotest.test_case "deadlock example (dfs)" `Quick test_deadlock_example_dfs;
    Alcotest.test_case "deadlock example (branching)" `Quick test_deadlock_example_branching_converges;
    Alcotest.test_case "deadlock example (flood)" `Quick test_deadlock_example_flood_converges;
    Alcotest.test_case "progress monotone" `Quick test_progress_monotone_static;
    Alcotest.test_case "async delays converge" `Quick test_async_delays_converge;
    Alcotest.test_case "node failure" `Quick test_node_failure_convergence;
    Alcotest.test_case "node failure + recovery" `Quick test_node_failure_and_recovery;
    Alcotest.test_case "dmax kills dfs, not branching" `Quick test_dmax_kills_dfs_but_not_branching;
    Alcotest.test_case "staggered periods" `Quick test_staggered_periods_converge;
    Alcotest.test_case "scale n=100 with failures" `Slow test_scale_100_with_failures;
    Alcotest.test_case "cyclic child order" `Quick test_cyclic_child_order;
    Alcotest.test_case "reset on recover forgets" `Quick
      test_reset_on_recover_forgets;
    Alcotest.test_case "reset on recover reconverges" `Quick
      test_reset_on_recover_reconverges;
    Alcotest.test_case "outcome golden" `Quick test_outcome_golden;
    Alcotest.test_case "minor words per syscall" `Quick
      test_maintenance_words_per_syscall;
    QCheck_alcotest.to_alcotest qcheck_random_failures_converge;
  ]
