(* Protocol runs reuse the engine and the network arrays that the
   previous run of the same size retired (Sim.Engine.retire,
   Hardware.Network.retire).  The reuse must be invisible: a run's
   result and its streamed trace are the same whatever ran before it on
   the domain, a fault-laden run or one that raised half-way. *)

module BC = Core.Broadcast
module BP = Core.Branching_paths
module FP = Hardware.Fault_plan
module G = Netgraph.Graph

let n = 48
let graph =
  Netgraph.Builders.random_connected (Sim.Rng.create ~seed:5) ~n
    ~extra_edges:24

(* Node 0's first neighbour: the link the fault-laden runs cut. *)
let cut = (0, List.hd (G.neighbors graph 0))

(* The node the fault-laden runs crash and never recover, and the link
   whose packets in flight they destroy: both away from [cut]. *)
let crashed = n - 1
let glitch = (n / 2, List.hd (G.neighbors graph (n / 2)))

(* Every fault a run can leave behind in the network's arrays: a link
   still down, a node still dead, bumped link epochs, and, under the
   jittered cost, FIFO and NCU marks far past time 0. *)
let faults =
  [
    FP.Link_set { at = 0.5; u = fst cut; v = snd cut; up = false };
    FP.Drop_in_flight { at = 1.0; u = fst glitch; v = snd glitch };
    FP.Node_set { at = 1.5; node = crashed; alive = false };
  ]

let jittered () =
  Hardware.Cost_model.uniform_random (Sim.Rng.create ~seed:9) ~c:1.0 ~p:3.0

(* [run trace] with a streaming trace, and the digest of the JSONL
   lines it streamed. *)
let streamed run =
  let lines = Buffer.create 4096 in
  let consumer e =
    Buffer.add_string lines (Sim.Trace_export.jsonl_of_event e);
    Buffer.add_char lines '\n';
    true
  in
  let result = run (Sim.Trace.streaming ~consumer ()) in
  (result, Digest.to_hex (Digest.string (Buffer.contents lines)))

(* The broadcast compared: fault-free until a late crash of [crashed],
   which reads the liveness array (a crash of a node the network
   believes dead is a no-op). *)
let broadcast_x () =
  streamed (fun trace ->
      let config =
        {
          (BC.default_config ()) with
          trace = Some trace;
          chaos =
            Some [ FP.Node_set { at = 50.0; node = crashed; alive = false } ];
        }
      in
      BP.run ~config ~graph ~root:0 ())

let broadcast_y () =
  let config =
    { (BC.default_config ()) with cost = jittered (); chaos = Some faults }
  in
  ignore (Core.Flooding.run ~config ~graph ~root:0 () : BC.result)

let check_same_broadcast what (r1, d1) (r2, d2) =
  Alcotest.(check bool) (what ^ ": same result") true (r1 = r2);
  Alcotest.(check string) (what ^ ": same streamed trace") d1 d2

let test_broadcast_after_faults () =
  let first = broadcast_x () in
  Alcotest.(check bool) "the late crash notifies" true
    ((fst first).BC.syscalls > n);
  broadcast_y ();
  check_same_broadcast "broadcast after a fault-laden run" first
    (broadcast_x ())

let election_x () =
  streamed (fun trace ->
      let o = Core.Election.run ~trace ~graph () in
      Core.Election.
        ( o.leader,
          o.believed_leader,
          (o.election_syscalls, o.start_syscalls, o.announce_syscalls),
          (o.total_syscalls, o.hops, o.time),
          (o.tours, o.captures, o.max_route, o.notify_syscalls) ))

let test_election_after_faults () =
  let first = election_x () in
  ignore
    (Core.Election.run_chaos ~cost:(jittered ()) ~chaos:faults ~graph ()
      : Core.Election.chaos_outcome);
  let again = election_x () in
  Alcotest.(check bool) "same outcome" true (fst first = fst again);
  Alcotest.(check string) "same streamed trace" (snd first) (snd again)

(* A run that raises leaves its engine and network dirty (events
   pending, marks set) and never retires them; the next run must not
   see them. *)
let test_broadcast_after_raise () =
  let first = broadcast_x () in
  let config =
    { (BC.default_config ()) with cost = jittered (); dmax = Some 2 }
  in
  (match BP.run ~config ~graph ~root:0 () with
  | _ -> Alcotest.fail "a header over dmax must raise"
  | exception Invalid_argument _ -> ());
  check_same_broadcast "broadcast after a raising run" first (broadcast_x ())

let suite =
  [
    Alcotest.test_case "broadcast after a fault-laden run" `Quick
      test_broadcast_after_faults;
    Alcotest.test_case "election after a fault-laden run" `Quick
      test_election_after_faults;
    Alcotest.test_case "broadcast after a raising run" `Quick
      test_broadcast_after_raise;
  ]
