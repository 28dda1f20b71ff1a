(* The paper-bound monitors of Hardware.Monitor, run in [Fail] mode
   against real executions across every topology family — plus negative
   tests proving that a violated bound is actually reported. *)

module BC = Core.Broadcast
module BP = Core.Branching_paths
module FL = Core.Flooding
module EL = Core.Election
module M = Hardware.Monitor
module B = Netgraph.Builders
module G = Netgraph.Graph

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

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

(* Theorem 2 + FIFO + one-way monitors hold, in Fail mode, for a
   branching-paths broadcast on every family. *)
let test_theorem2_fail_mode_all_families () =
  List.iter
    (fun (name, g) ->
      let fifo = M.Fifo.create () in
      let trace =
        Sim.Trace.streaming ~consumer:(fun e -> M.Fifo.observe fifo e; true) ()
      in
      let config = { (BC.default_config ()) with trace = Some trace } in
      let r = BP.run ~config ~graph:g ~root:0 () in
      let reports =
        [
          M.theorem2_broadcast ~n:(G.n g) ~syscalls:r.BC.syscalls
            ~time:r.BC.time ();
          M.one_way_delivery ~n:(G.n g) ~syscalls:r.BC.syscalls;
          M.Fifo.report fifo;
        ]
      in
      match M.enforce M.Fail reports with
      | [] -> ()
      | _ -> Alcotest.failf "%s: monitors reported failure" name)
    (graphs ())

(* Theorem 5's 6n election budget holds, in Fail mode, on every
   family; the headers stay under the live dmax the election sets. *)
let test_election_budget_fail_mode_all_families () =
  List.iter
    (fun (name, g) ->
      let n = G.n g in
      let r = EL.run ~graph:g () in
      let reports =
        [
          M.election_budget ~n ~election_syscalls:r.EL.election_syscalls;
          M.dmax_ceiling ~dmax:((2 * n) + 2) ~max_header:r.EL.max_route;
        ]
      in
      match M.enforce M.Fail reports with
      | [] -> ()
      | _ -> Alcotest.failf "%s: election monitors reported failure" name)
    (graphs ())

(* Negative: flooding spends far more than n system calls on any graph
   with extra edges, so the Theorem 2 monitor must flag it — and Fail
   mode must raise [Violation] carrying the failed report. *)
let test_flooding_violates_theorem2 () =
  let g = B.hypercube 4 in
  let r = FL.run ~graph:g ~root:0 () in
  check_bool "flooding really oversteps" true (r.BC.syscalls > G.n g);
  let report =
    M.theorem2_broadcast ~n:(G.n g) ~syscalls:r.BC.syscalls ~time:r.BC.time ()
  in
  check_bool "monitor reports the violation" false report.M.ok;
  check_bool "Fail mode raises Violation" true
    (try
       ignore (M.enforce M.Fail [ report ] : M.report list);
       false
     with M.Violation [ rep ] -> rep.M.monitor = report.M.monitor)

(* Negative: Warn mode prints the violation but does not raise, and
   still returns the failed reports so a caller can count them. *)
let test_warn_mode_reports_without_raising () =
  let bad = M.election_budget ~n:4 ~election_syscalls:1000 in
  check_bool "budget monitor rejects 1000 > 6*4" false bad.M.ok;
  let buf = Buffer.create 64 in
  let out = Format.formatter_of_buffer buf in
  let failed = M.enforce ~out M.Warn [ bad ] in
  Format.pp_print_flush out ();
  check_int "one failed report returned" 1 (List.length failed);
  check_bool "warning was printed" true (Buffer.length buf > 0);
  (* Off mode neither raises nor prints, but still returns them *)
  check_int "Off mode returns failures silently" 1
    (List.length (M.enforce M.Off [ bad ]))

(* Negative: a header longer than dmax is flagged. *)
let test_dmax_ceiling_violation () =
  let ok = M.dmax_ceiling ~dmax:32 ~max_header:32 in
  let bad = M.dmax_ceiling ~dmax:32 ~max_header:33 in
  check_bool "at the ceiling passes" true ok.M.ok;
  check_bool "one over the ceiling fails" false bad.M.ok

(* Negative: a hand-built hop stream where a link's second packet
   completes its hop before the first is a FIFO violation. *)
let fifo_ok hops =
  let fifo = M.Fifo.create () in
  List.iter
    (fun (src, dst, time) ->
      M.Fifo.observe fifo (Sim.Trace.Hop { src; dst; time; msg_id = 0 }))
    hops;
  (M.Fifo.report fifo).M.ok

let test_fifo_violation_detected () =
  check_bool "reordered link flagged" false
    (fifo_ok [ (0, 1, 2.0); (0, 1, 1.0) ]);
  (* the reverse direction is a different FIFO queue: no violation *)
  check_bool "opposite directions independent" true
    (fifo_ok [ (0, 1, 2.0); (1, 0, 1.0) ]);
  check_bool "no hop passes vacuously" true (fifo_ok [])

(* Mutation: a real broadcast's event stream, fed through the chaos
   runner's streaming consumer ([Chaos.Oracle.observe]), passes; the
   same stream with one hop replayed a unit earlier on its link must
   fail. *)
let test_fifo_consumer_catches_reordered_hop () =
  let graph = B.grid ~rows:4 ~cols:5 in
  let run ~mutate =
    let tap = Chaos.Oracle.tap graph in
    let mutated = ref false in
    let consumer e =
      (match e with
      | Sim.Trace.Hop h when mutate && not !mutated ->
          mutated := true;
          ignore (Chaos.Oracle.observe tap e : bool);
          ignore
            (Chaos.Oracle.observe tap
               (Sim.Trace.Hop { h with time = h.time -. 1.0 })
              : bool)
      | _ -> ignore (Chaos.Oracle.observe tap e : bool));
      true
    in
    let config =
      {
        (BC.default_config ()) with
        trace = Some (Sim.Trace.streaming ~consumer ());
      }
    in
    ignore
      (BP.run ~config ~graph ~root:0 () : BC.result);
    Chaos.Oracle.fifo_per_link tap
  in
  check_bool "faithful stream passes" true (run ~mutate:false).M.ok;
  let report = run ~mutate:true in
  check_bool "reordered hop yields fifo-per-link false" false report.M.ok;
  Alcotest.(check string) "monitor name" "fifo-per-link" report.M.monitor

(* The checker's open-addressing table against the tuple-keyed
   Hashtbl check it replaced: random hop streams over up to 400
   directed links (so the table grows several times), with times that
   mostly advance and sometimes step back, must get the same report,
   detail text included. *)
let reference_fifo hops =
  let clocks = Hashtbl.create 64 in
  let violation = ref None in
  List.iter
    (fun (src, dst, time) ->
      if !violation = None then
        match Hashtbl.find_opt clocks (src, dst) with
        | Some last when time < last ->
            violation :=
              Some
                (Printf.sprintf
                   "link %d->%d: hop at %g completed after one at %g" src dst
                   time last)
        | _ -> Hashtbl.replace clocks (src, dst) time)
    hops;
  match !violation with
  | None ->
      Printf.sprintf "hop order FIFO on all %d directed links"
        (Hashtbl.length clocks)
  | Some v -> v

let qcheck_fifo_matches_reference =
  QCheck.Test.make ~name:"fifo checker matches the Hashtbl reference"
    ~count:200
    QCheck.(triple (int_range 1 20) (int_range 0 2000) (int_range 0 10_000))
    (fun (nodes, length, seed) ->
      let rng = Sim.Rng.create ~seed in
      let now = ref 0.0 in
      let hops =
        List.init length (fun _ ->
            (* one step back in 200 on average *)
            let back = if Sim.Rng.chance rng 0.005 then 50.0 else 0.0 in
            now := !now +. Sim.Rng.float rng 1.0 -. back;
            (Sim.Rng.int rng nodes, Sim.Rng.int rng nodes, !now))
      in
      let fifo = M.Fifo.create () in
      List.iter
        (fun (src, dst, time) ->
          M.Fifo.observe fifo (Sim.Trace.Hop { src; dst; time; msg_id = 0 }))
        hops;
      let expected = reference_fifo hops in
      let report = M.Fifo.report fifo in
      if report.M.detail <> expected then
        QCheck.Test.fail_reportf "got %S, want %S" report.M.detail expected
      else report.M.ok = (String.sub expected 0 4 = "hop "))

(* The time bound is sharp: pretend a broadcast took one unit longer
   than (2 + log2 n) * P and the monitor must flag it. *)
let test_theorem2_time_bound_is_checked () =
  let n = 16 in
  let limit = (2.0 +. Sim.Stats.log2 (float_of_int n)) *. 1.0 in
  let at_limit = M.theorem2_broadcast ~n ~syscalls:n ~time:limit () in
  let over = M.theorem2_broadcast ~n ~syscalls:n ~time:(limit +. 1.0) () in
  check_bool "exactly at the bound passes" true at_limit.M.ok;
  check_bool "over the bound fails" false over.M.ok;
  (* scaling P scales the wall-clock bound *)
  let scaled = M.theorem2_broadcast ~p:2.0 ~n ~syscalls:n ~time:(limit *. 2.0) () in
  check_bool "bound scales with P" true scaled.M.ok

let suite =
  [
    Alcotest.test_case "theorem 2 in fail mode, all families" `Quick
      test_theorem2_fail_mode_all_families;
    Alcotest.test_case "6n election budget in fail mode, all families" `Quick
      test_election_budget_fail_mode_all_families;
    Alcotest.test_case "flooding violates theorem 2" `Quick
      test_flooding_violates_theorem2;
    Alcotest.test_case "warn mode reports without raising" `Quick
      test_warn_mode_reports_without_raising;
    Alcotest.test_case "dmax ceiling violation" `Quick
      test_dmax_ceiling_violation;
    Alcotest.test_case "fifo violation detected" `Quick
      test_fifo_violation_detected;
    Alcotest.test_case "theorem 2 time bound checked" `Quick
      test_theorem2_time_bound_is_checked;
    Alcotest.test_case "fifo consumer catches reordered hop" `Quick
      test_fifo_consumer_catches_reordered_hop;
    QCheck_alcotest.to_alcotest qcheck_fifo_matches_reference;
  ]
