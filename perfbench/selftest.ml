(* Shows that the benchmark's correctness gate can fail: genuine
   results pass each workload's check, falsified ones are refused, and
   a falsified op is counted as failed by the tally the timed loop
   uses, as is a repeat whose simulated cost drifts. *)

module W = Workloads

let failures = ref 0

let expect name ok =
  Printf.eprintf "%s: %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let op ?(ok = true) ?(syscalls = 10) () = { W.ok; syscalls; time = 3.0; counts = lazy [] }

let run () =
  let n = 64 in
  let graph = Netgraph.Builders.random_connected (Sim.Rng.create ~seed:7) ~n ~extra_edges:(n / 2) in
  (* broadcast: all reached, exactly n syscalls, Theorem 2 time *)
  let r = Core.Branching_paths.run ~graph ~root:0 () in
  expect "broadcast: genuine result passes" (W.broadcast_ok ~n r);
  expect "broadcast: an extra syscall fails" (not (W.broadcast_ok ~n { r with syscalls = n + 1 }));
  let reached = Array.copy r.reached in
  reached.(n - 1) <- false;
  expect "broadcast: an unreached node fails" (not (W.broadcast_ok ~n { r with reached }));
  expect "broadcast: time past Theorem 2 fails"
    (not (W.broadcast_ok ~n { r with time = 3.0 +. Sim.Stats.log2 (float_of_int n) }));
  (* election: one leader, believed everywhere, within 6n *)
  let e = Core.Election.run ~graph () in
  expect "election: genuine result passes" (W.election_ok ~n e);
  let believed_leader = Array.copy e.believed_leader in
  believed_leader.(n - 1) <- Some ((e.leader + 1) mod n);
  expect "election: a dissenting node fails" (not (W.election_ok ~n { e with believed_leader }));
  expect "election: 6n + 1 syscalls fails"
    (not (W.election_ok ~n { e with election_syscalls = (6 * n) + 1 }));
  (* maintenance: converged *)
  let m =
    Core.Topo_maintenance.run
      ~graph:(Netgraph.Builders.ring 8) ~events:[] ()
  in
  expect "maintenance: genuine result passes" (W.maintenance_ok m);
  expect "maintenance: not converged fails" (not (W.maintenance_ok { m with converged = false }));
  (* heal: the liveness verdict *)
  let s = Chaos.Schedule.generate_healing ~n:16 ~seed:3 ~index:0 () in
  let v = Chaos.Runner.run_schedule ~liveness:true Parallel.Sweep.Bpaths s in
  expect "heal: genuine verdict passes" (W.heal_ok v);
  expect "heal: failed verdict fails" (not (W.heal_ok { v with ok = false }));
  (* the tally: falsified ops count as failed, drift is caught *)
  let t = Tally.create () in
  Tally.record t 0 (op ());
  Tally.record t 0 (op ~ok:(W.broadcast_ok ~n { r with syscalls = n + 1 }) ());
  Tally.record t 1 (op ~syscalls:12 ());
  expect "tally: the falsified op is counted as failed"
    (t.attempted = 3 && t.failed = 1 && t.drift = None);
  Tally.record t 0 (op ~syscalls:11 ());
  expect "tally: a repeat with another simulated cost is caught" (t.drift <> None);
  if !failures > 0 then exit 1
