(* Pinned-cost parity suite for the array-based election walks and the
   delta-encoded maintenance payloads (DESIGN.md §15).

   The rewrite that un-gated the Θ(n²) scenarios replaced the
   list-splicing walk bookkeeping of the election and the materialised
   neighbor-list payloads of topology maintenance with int-array
   cursors and edge-delta vectors.  Those are *representation* changes:
   the protocols must make exactly the same moves, so every system-call
   count, hop count, tour count and oracle verdict below is pinned to
   the values the pre-rewrite implementation produced on the same
   seeded scenarios.  A drift of one syscall here means the refactor
   changed protocol behaviour, not just its cost — the single thing
   this suite exists to catch.

   The scenarios mirror the scaling bench exactly: ring and seeded
   random graphs via the compiled-topology cache, the bench's
   maintenance seed, and the k-origin scale mode the one-shot sizes
   run. *)

module E = Core.Election
module TM = Core.Topo_maintenance

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ring ~n = Compile.Topology.graph (Compile.Cache.ring ~n)

let rand ~seed ~n ~extra_edges =
  Compile.Topology.graph (Compile.Cache.random_connected ~seed ~n ~extra_edges)

(* -- election: pinned syscall/hop/tour counts ------------------------- *)

let check_election name (o : E.outcome) ~leader ~election ~total ~hops ~tours
    ~captures =
  check_int (name ^ " leader") leader o.E.leader;
  check_int (name ^ " election syscalls") election o.election_syscalls;
  check_int (name ^ " total syscalls") total o.total_syscalls;
  check_int (name ^ " hops") hops o.hops;
  check_int (name ^ " tours") tours o.tours;
  check_int (name ^ " captures") captures o.captures

let test_ring_64 () =
  check_election "ring64"
    (E.run ~graph:(ring ~n:64) ())
    ~leader:63 ~election:299 ~total:426 ~hops:2485 ~tours:126 ~captures:63

let test_ring_256 () =
  check_election "ring256"
    (E.run ~graph:(ring ~n:256) ())
    ~leader:255 ~election:1211 ~total:1722 ~hops:34549 ~tours:510 ~captures:255

let test_ring_1024 () =
  check_election "ring1024"
    (E.run ~graph:(ring ~n:1024) ())
    ~leader:1023 ~election:4859 ~total:6906 ~hops:531445 ~tours:2046
    ~captures:1023

let test_ring_4096 () =
  check_election "ring4096"
    (E.run ~graph:(ring ~n:4096) ())
    ~leader:4095 ~election:19451 ~total:27642 ~hops:8417269 ~tours:8190
    ~captures:4095

let test_rand_64 () =
  let o = E.run ~graph:(rand ~seed:42 ~n:64 ~extra_edges:32) () in
  check_election "rand64" o ~leader:61 ~election:297 ~total:424 ~hops:942
    ~tours:125 ~captures:63;
  check_int "rand64 max_route" 10 o.E.max_route

let test_rand_256 () =
  let o = E.run ~graph:(rand ~seed:42 ~n:256 ~extra_edges:128) () in
  check_election "rand256" o ~leader:166 ~election:1210 ~total:1721 ~hops:4310
    ~tours:507 ~captures:255;
  check_int "rand256 max_route" 14 o.E.max_route

let test_rand_1024 () =
  let o = E.run ~graph:(rand ~seed:42 ~n:1024 ~extra_edges:512) () in
  check_election "rand1024" o ~leader:866 ~election:4869 ~total:6916
    ~hops:24106 ~tours:2041 ~captures:1023;
  check_int "rand1024 max_route" 23 o.E.max_route

let test_starters () =
  let o =
    E.run ~starters:[ 0; 32; 63 ] ~graph:(rand ~seed:7 ~n:64 ~extra_edges:64) ()
  in
  check_election "starters64" o ~leader:1 ~election:256 ~total:322 ~hops:773
    ~tours:126 ~captures:63;
  let o =
    E.run
      ~starters:[ 0; 128; 255 ]
      ~graph:(rand ~seed:7 ~n:256 ~extra_edges:256)
      ()
  in
  check_election "starters256" o ~leader:129 ~election:1026 ~total:1284
    ~hops:4481 ~tours:510 ~captures:255

let test_rng_schedule () =
  (* the randomised target choice keeps its own code path (a sorted
     OUT-node list feeds Rng.pick), so pin it separately *)
  let o =
    E.run
      ~rng:(Sim.Rng.create ~seed:5)
      ~graph:(rand ~seed:42 ~n:64 ~extra_edges:32)
      ()
  in
  check_election "rng64" o ~leader:35 ~election:282 ~total:409 ~hops:657
    ~tours:124 ~captures:63;
  let o =
    E.run
      ~rng:(Sim.Rng.create ~seed:5)
      ~graph:(rand ~seed:42 ~n:256 ~extra_edges:128)
      ()
  in
  check_election "rng256" o ~leader:235 ~election:1197 ~total:1708 ~hops:3569
    ~tours:507 ~captures:255

let test_notify () =
  let o = E.run ~notify_supporters:true ~graph:(ring ~n:64) () in
  check_int "notify64 leader" 63 o.E.leader;
  check_int "notify64 election syscalls" 299 o.election_syscalls;
  check_int "notify64 notify syscalls" 124 o.notify_syscalls;
  check_int "notify64 total syscalls" 550 o.total_syscalls;
  check_int "notify64 hops" 4545 o.hops

(* -- maintenance: pinned syscalls/hops and oracle verdicts ------------ *)

let maint ~n ~method_ ~max_rounds =
  let params = { (TM.default_params ()) with method_; max_rounds } in
  TM.run ~params ~graph:(rand ~seed:1 ~n ~extra_edges:(n / 2)) ~events:[] ()

let check_maint name (o : TM.outcome) ~converged ~rounds ~syscalls ~hops =
  check_bool (name ^ " converged") converged o.TM.converged;
  check_int (name ^ " rounds") rounds o.rounds;
  check_int (name ^ " syscalls") syscalls o.syscalls;
  check_int (name ^ " hops") hops o.hops

let test_maint_bpaths () =
  check_maint "bpaths64"
    (maint ~n:64 ~method_:TM.Branching ~max_rounds:2)
    ~converged:false ~rounds:2 ~syscalls:1034 ~hops:906;
  check_maint "bpaths256"
    (maint ~n:256 ~method_:TM.Branching ~max_rounds:2)
    ~converged:false ~rounds:2 ~syscalls:4256 ~hops:3744;
  check_maint "bpaths1024"
    (maint ~n:1024 ~method_:TM.Branching ~max_rounds:1)
    ~converged:false ~rounds:1 ~syscalls:4094 ~hops:3070

let test_maint_flood () =
  check_maint "flood64"
    (maint ~n:64 ~method_:TM.Flood ~max_rounds:2)
    ~converged:false ~rounds:2 ~syscalls:6509 ~hops:7973;
  check_maint "flood256"
    (maint ~n:256 ~method_:TM.Flood ~max_rounds:2)
    ~converged:false ~rounds:2 ~syscalls:31073 ~hops:52355

let test_maint_dfs () =
  check_maint "dfs64"
    (maint ~n:64 ~method_:TM.Dfs_token ~max_rounds:2)
    ~converged:false ~rounds:2 ~syscalls:1034 ~hops:1625;
  check_maint "dfs256"
    (maint ~n:256 ~method_:TM.Dfs_token ~max_rounds:2)
    ~converged:false ~rounds:2 ~syscalls:4256 ~hops:6749

let test_maint_events () =
  (* a mid-run link failure exercises the delta-payload update path *)
  let g = rand ~seed:1 ~n:64 ~extra_edges:32 in
  check_bool "edge 0-1 exists" true (Netgraph.Graph.has_edge g 0 1);
  let params = { (TM.default_params ()) with max_rounds = 8 } in
  let events = [ { TM.at = 70.0; edge = (0, 1); up = false } ] in
  check_maint "events64"
    (TM.run ~params ~graph:g ~events ())
    ~converged:true ~rounds:7 ~syscalls:17096 ~hops:16892

let test_maint_origins () =
  (* the k-origin scale mode the one-shot bench sizes run: preseeded
     shared base, 4 origins, dissemination convergence in one round at
     Θ(nk) syscalls per round *)
  let params =
    {
      (TM.default_params ()) with
      max_rounds = 4;
      preseed = true;
      origins = Some [ 0; 256; 512; 768 ];
    }
  in
  let o =
    TM.run ~params ~graph:(rand ~seed:1 ~n:1024 ~extra_edges:512) ~events:[] ()
  in
  check_maint "origins4-1024" o ~converged:true ~rounds:1 ~syscalls:5116
    ~hops:4092;
  check_int "origins4-1024 all nodes disseminated" 1024
    (List.nth o.TM.correct_per_round 0)

(* -- the un-gated scale rows --------------------------------------- *)

(* The scenario table must yield, at n=65536, the election and
   maintenance rows the former scale gate dropped, in their scale
   forms, next to both broadcasts: these are the rows `make
   bench-scale` runs and checks against the counter golden.  Names
   only — nothing is run here. *)
let test_scale_rows_named () =
  let names =
    List.map
      (fun (r : Experiments.Scaling.row) -> r.name ~n:65536)
      Experiments.Scaling.rows
  in
  List.iter
    (fun row -> check_bool (row ^ " row present") true (List.mem row names))
    [
      "e6/election-rand-n65536";
      "e5/maintenance-origins4-n65536";
      "e1/branching-paths-broadcast-n65536";
      "e1/flooding-broadcast-n65536";
    ]

let suite =
  [
    Alcotest.test_case "election ring n=64 pinned" `Quick test_ring_64;
    Alcotest.test_case "election ring n=256 pinned" `Quick test_ring_256;
    Alcotest.test_case "election ring n=1024 pinned" `Quick test_ring_1024;
    Alcotest.test_case "election ring n=4096 pinned" `Slow test_ring_4096;
    Alcotest.test_case "election random n=64 pinned" `Quick test_rand_64;
    Alcotest.test_case "election random n=256 pinned" `Quick test_rand_256;
    Alcotest.test_case "election random n=1024 pinned" `Quick test_rand_1024;
    Alcotest.test_case "election multi-starter pinned" `Quick test_starters;
    Alcotest.test_case "election rng schedule pinned" `Quick test_rng_schedule;
    Alcotest.test_case "election notify pinned" `Quick test_notify;
    Alcotest.test_case "maintenance bpaths pinned" `Quick test_maint_bpaths;
    Alcotest.test_case "maintenance flood pinned" `Quick test_maint_flood;
    Alcotest.test_case "maintenance dfs pinned" `Quick test_maint_dfs;
    Alcotest.test_case "maintenance mid-run failure pinned" `Quick
      test_maint_events;
    Alcotest.test_case "maintenance k-origin scale mode pinned" `Quick
      test_maint_origins;
    Alcotest.test_case "n=65536 table names the scale rows" `Quick
      test_scale_rows_named;
  ]
