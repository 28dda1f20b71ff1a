(* Tests for the chaos harness: schedule generation and codec,
   soak determinism across job counts, repro round-trips, and the
   counterexample shrinker — including the headline property that a
   planted fault-handling bug shrinks to a handful of fault events. *)

module Sch = Chaos.Schedule
module R = Chaos.Runner
module Sweep = Parallel.Sweep
module N = Hardware.Network
module FP = Hardware.Fault_plan
module B = Netgraph.Builders

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* -- generation -------------------------------------------------------- *)

let test_generation_deterministic () =
  let a = Sch.generate ~n:32 ~seed:9 ~index:4 () in
  let b = Sch.generate ~n:32 ~seed:9 ~index:4 () in
  check_bool "same schedule" true (Sch.equal a b);
  let c = Sch.generate ~n:32 ~seed:9 ~index:5 () in
  check_bool "different index differs" false (Sch.equal a c)

let test_generation_faults_before_horizon () =
  for index = 0 to 19 do
    let s = Sch.generate ~n:24 ~seed:3 ~index () in
    check_bool "faults land before the horizon" true
      (FP.quiescence s.Sch.faults < Sch.default_horizon);
    check_bool "at least one fault" true (s.Sch.faults <> [])
  done

let test_graph_regenerates () =
  let s = Sch.generate ~n:24 ~seed:3 ~index:7 () in
  let g1 = Sch.graph_of s and g2 = Sch.graph_of s in
  check_bool "same edges" true
    (Netgraph.Graph.edges g1 = Netgraph.Graph.edges g2)

(* The first pair [u < v] that is not an edge of [g]. *)
let first_non_edge g =
  let n = Netgraph.Graph.n g in
  let rec find u v =
    if v >= n then find (u + 1) (u + 2)
    else if Netgraph.Graph.has_edge g u v then find u (v + 1)
    else (u, v)
  in
  find 0 1

(* A repro file naming a link the graph lacks is refused (see "codec
   refuses unrunnable schedules"), but a schedule built in code can
   still carry one: the final-state replay ignores it, out-of-range
   endpoints included, so it neither breaks nor heals anything. *)
let test_replay_ignores_foreign_links () =
  let s = Sch.generate ~n:12 ~seed:3 ~index:0 () in
  let g = Sch.graph_of s in
  let non_edge = first_non_edge g in
  let foreign =
    [
      FP.Link_set { at = 0.0; u = fst non_edge; v = snd non_edge; up = false };
      FP.Link_set { at = 0.0; u = -1; v = 3; up = false };
      FP.Link_set { at = 0.0; u = 0; v = 12; up = false };
      FP.Link_set { at = 0.0; u = 5; v = 5; up = false };
      FP.Link_set { at = 1.0; u = 99; v = -7; up = true };
    ]
  in
  let clean = { s with Sch.faults = [] } in
  let final = Sch.final_state ~graph:g { s with Sch.faults = foreign } in
  check_bool "every link still up" true (Array.for_all Fun.id final.Sch.up);
  check_bool "nobody dead" false (Array.exists Fun.id final.Sch.dead);
  check_bool "heals like the fault-free schedule" (Sch.heals clean)
    (Sch.heals { s with Sch.faults = foreign })

(* A static schedule only takes links and nodes away, and only at time
   0: the component-scoped oracle relies on the topology never
   changing mid-run. *)
let test_is_static () =
  let s = Sch.generate ~n:12 ~seed:3 ~index:0 () in
  let u, v = List.hd (Netgraph.Graph.edges (Sch.graph_of s)) in
  let static fs = Sch.is_static { s with Sch.faults = fs } in
  let cut at = FP.Link_set { at; u; v; up = false } in
  let crash = FP.Node_set { at = 0.0; node = 1; alive = false } in
  check_bool "cut at 0" true (static [ cut 0.0 ]);
  check_bool "cut and crash at 0" true (static [ cut 0.0; crash ]);
  check_bool "cut later" false (static [ cut 1.0 ]);
  check_bool "link_up at 0" false
    (static [ cut 0.0; FP.Link_set { at = 0.0; u; v; up = true } ]);
  check_bool "node_recover at 0" false
    (static [ crash; FP.Node_set { at = 0.0; node = 1; alive = true } ]);
  check_bool "drop_in_flight at 0" false
    (static [ FP.Drop_in_flight { at = 0.0; u; v } ]);
  check_bool "no faults" false (static [])

(* -- codec ------------------------------------------------------------- *)

let qcheck_codec_roundtrip =
  QCheck.Test.make ~name:"schedule JSON codec round-trips byte-identically"
    ~count:200
    QCheck.(pair small_int (int_bound 63))
    (fun (seed, index) ->
      let s = Sch.generate ~n:16 ~seed ~index () in
      let j = Sch.to_json s in
      match Sch.of_json j with
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e
      | Ok s' -> Sch.equal s s' && String.equal j (Sch.to_json s'))

let test_codec_rejects_garbage () =
  check_bool "not JSON" true (Result.is_error (Sch.of_json "]{"));
  check_bool "wrong shape" true (Result.is_error (Sch.of_json "{\"seed\":1}"));
  check_bool "bad fault kind" true
    (Result.is_error
       (Sch.of_json
          "{\"seed\":1,\"index\":0,\"n\":4,\"jitter\":0,\
           \"faults\":[{\"kind\":\"meteor\",\"at\":1}]}"))

(* Every shape the runner could not replay is refused by the decoder
   with an [Error] that names the fault and the field, rather than
   decoded into a run that raises: a link fault on a non-edge, a node
   outside [0, n), n = 0, a negative time, a negative index.  A repro
   file asking for liveness mode of a family without a recovery layer
   is refused by the repro reader. *)
let test_codec_refuses_unrunnable () =
  let s = Sch.generate ~n:12 ~seed:3 ~index:0 () in
  let u, v = first_non_edge (Sch.graph_of s) in
  let refused name needle t =
    match Sch.of_json (Sch.to_json t) with
    | Ok _ -> Alcotest.failf "%s: decoded" name
    | Error e ->
        check_bool (Printf.sprintf "%s: %S names %S" name e needle) true
          (contains e needle)
  in
  let faults fs = { s with Sch.faults = fs } in
  refused "link_down on a non-edge"
    (Printf.sprintf "fault 0 (link_down): u %d, v %d is not an edge" u v)
    (faults [ FP.Link_set { at = 1.0; u; v; up = false } ]);
  refused "drop_in_flight on a non-edge"
    (Printf.sprintf "fault 0 (drop_in_flight): u %d, v %d is not an edge" u v)
    (faults [ FP.Drop_in_flight { at = 1.0; u; v } ]);
  refused "link_up on an out-of-range endpoint"
    "fault 1 (link_up): u 0, v 12 is not an edge"
    (faults
       [
         FP.Link_set { at = 1.0; u; v = u + 1; up = false };
         FP.Link_set { at = 2.0; u = 0; v = 12; up = true };
       ]);
  refused "node_crash out of range" "fault 0 (node_crash): node 12 is outside"
    (faults [ FP.Node_set { at = 1.0; node = 12; alive = false } ]);
  refused "negative node_recover" "fault 0 (node_recover): node -9 is outside"
    (faults [ FP.Node_set { at = 1.0; node = -9; alive = true } ]);
  refused "negative time" "fault 0 (node_crash): at -5 is not"
    (faults [ FP.Node_set { at = -5.0; node = 2; alive = false } ]);
  refused "n = 0" "n 0 is outside" { s with Sch.n = 0; faults = [] };
  refused "negative index" "index -1 is negative" { s with Sch.index = -1 };
  let path = Filename.temp_file "chaos-repro" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      List.iter
        (fun scenario ->
          let name = Sweep.scenario_name scenario in
          Out_channel.with_open_text path (fun oc ->
              Printf.fprintf oc
                "{\"repro\":\"futurenet-chaos\",\"version\":1,\
                 \"scenario\":\"%s\",\"liveness\":true,\"schedule\":%s,\
                 \"failed_oracles\":[]}"
                name (Sch.to_json s));
          match R.replay path with
          | Ok _ -> Alcotest.failf "liveness %s replayed" name
          | Error e ->
              check_bool ("liveness " ^ name ^ ": " ^ e) true
                (contains e (name ^ " has no recovery layer")))
        [ Sweep.Dfs; Sweep.Direct; Sweep.Layered ])

(* Repro files are hand-edited, so the decoder must be total: a few
   generated schedules' JSON with 1-3 random byte edits (replace,
   insert, delete; half the new bytes JSON punctuation or digits, half
   any byte) is refused with an [Error] or decodes to a well-formed
   schedule, never raises — and a schedule it accepts replays through
   the runner, in a family the case picks, without raising. *)
let fuzz_docs =
  lazy
    (Array.init 8 (fun index ->
         Sch.to_json (Sch.generate ~n:16 ~seed:(index / 2) ~index ())))

let json_bytes = "{}[]:,\"-.+0123456789eE \\tfnul"

let apply_edit doc (kind, pos, b) =
  let len = String.length doc in
  let c =
    if b < 128 then json_bytes.[b mod String.length json_bytes]
    else Char.chr b
  in
  let at bound = if bound = 0 then 0 else pos mod bound in
  match kind with
  | 0 when len > 0 ->
      let i = at len in
      String.mapi (fun j x -> if j = i then c else x) doc
  | 1 when len > 0 ->
      let i = at len in
      String.sub doc 0 i ^ String.sub doc (i + 1) (len - i - 1)
  | _ ->
      let i = at (len + 1) in
      String.sub doc 0 i ^ String.make 1 c ^ String.sub doc i (len - i)

let qcheck_codec_fuzz =
  QCheck.Test.make ~name:"schedule decoder total under byte edits" ~count:2000
    QCheck.(
      triple (int_bound 7)
        (int_bound (List.length Sweep.all_scenarios - 1))
        (list_of_size Gen.(1 -- 3)
           (triple (int_bound 2) (int_bound 100_000) (int_bound 255))))
    (fun (doc, family, edits) ->
      let src = List.fold_left apply_edit (Lazy.force fuzz_docs).(doc) edits in
      match Sch.of_json src with
      | Error _ -> true
      | Ok s ->
          Sch.well_formed s = Ok ()
          &&
          let v = R.run_schedule (List.nth Sweep.all_scenarios family) s in
          Sch.equal v.R.schedule s)

(* -- soak determinism -------------------------------------------------- *)

let test_soak_json_independent_of_jobs () =
  List.iter
    (fun scenario ->
      let inline = R.soak scenario ~n:12 ~seed:5 ~schedules:4 () in
      Parallel.Pool.with_pool ~jobs:3 (fun pool ->
          let pooled = R.soak ~pool scenario ~n:12 ~seed:5 ~schedules:4 () in
          check_string
            (Sweep.scenario_name scenario)
            (R.soak_json inline) (R.soak_json pooled)))
    [ Sweep.Bpaths; Sweep.Election; Sweep.Maintenance ];
  (* liveness runs check their trace oracles online: the oracle state
     must be per run, not shared between pool workers *)
  Parallel.Pool.with_pool ~jobs:3 (fun pool ->
      List.iter
        (fun scenario ->
          let soak ?pool () =
            R.soak ?pool ~liveness:true scenario ~n:16 ~seed:5 ~schedules:6 ()
          in
          check_string
            ("liveness " ^ Sweep.scenario_name scenario)
            (R.soak_json (soak ())) (R.soak_json (soak ~pool ())))
        [ Sweep.Bpaths; Sweep.Flood; Sweep.Election; Sweep.Maintenance ])

(* The online oracles of run_schedule and the stream a replay hands
   back see the same run: the stream's hops and drops are the
   verdict's, and a FIFO fold over it reports what the online oracle
   did.  (Its syscall events are not the verdict's [syscalls], which
   also counts deliveries.) *)
let test_traced_replay_agrees () =
  List.iter
    (fun (liveness, scenario, index) ->
      let s =
        if liveness then Sch.generate_healing ~n:24 ~seed:7 ~index ()
        else Sch.generate ~n:24 ~seed:7 ~index ()
      in
      let name =
        Printf.sprintf "%s%s schedule %d" (Sweep.scenario_name scenario)
          (if liveness then "/liveness" else "")
          index
      in
      let v = R.run_schedule ~liveness scenario s in
      let fifo = Hardware.Monitor.Fifo.create () in
      let hops, drops =
        Seq.fold_left
          (fun (hops, drops) e ->
            Hardware.Monitor.Fifo.observe fifo e;
            match e with
            | Sim.Trace.Hop _ -> (hops + 1, drops)
            | Sim.Trace.Drop _ -> (hops, drops + 1)
            | _ -> (hops, drops))
          (0, 0)
          (R.replay_events ~liveness scenario s)
      in
      check_bool (name ^ ": the stream carries hops") true (hops > 0);
      check_int (name ^ ": hops") v.R.hops hops;
      check_int (name ^ ": drops") v.R.drops drops;
      let online =
        List.find
          (fun r -> r.Hardware.Monitor.monitor = "fifo-per-link")
          v.R.oracles
      in
      check_string (name ^ ": fifo detail")
        (Hardware.Monitor.Fifo.report fifo).detail online.detail)
    [
      (true, Sweep.Bpaths, 0);
      (true, Sweep.Flood, 1);
      (true, Sweep.Election, 2);
      (false, Sweep.Bpaths, 3);
      (false, Sweep.Dfs, 4);
      (false, Sweep.Election, 5);
    ]

(* -- verdicts pinned byte for byte ------------------------------------- *)

(* MD5 of whole soak JSON documents and of generated healing schedules.
   Every oracle's name, verdict and detail text is in a verdict, so a
   change to fault replay or to how the oracles consume the trace that
   moves any verdict by a byte moves a digest. *)
let md5 s = Digest.to_hex (Digest.string s)

let soak_digest ?(liveness = false) scenario ~n ~seed ~schedules =
  md5 (R.soak_json (R.soak ~liveness scenario ~n ~seed ~schedules ()))

let test_verdict_digests () =
  let pin name expected actual = check_string name expected actual in
  pin "liveness bpaths n=256" "cd985d9c0ab51acb006e00dd994ed83e"
    (soak_digest ~liveness:true Sweep.Bpaths ~n:256 ~seed:3 ~schedules:16);
  List.iter
    (fun (scenario, expected) ->
      pin
        ("liveness " ^ Sweep.scenario_name scenario ^ " n=32")
        expected
        (soak_digest ~liveness:true scenario ~n:32 ~seed:5 ~schedules:24))
    [
      (Sweep.Flood, "3733b4f9f5fdfc28fa8e7576864d374d");
      (Sweep.Election, "65dc6b98fff5f42ccf41a5f965db47d0");
      (Sweep.Maintenance, "a541a3ed271708c0980341e2b09603bc");
    ];
  List.iter2
    (fun scenario expected ->
      pin
        ("safety " ^ Sweep.scenario_name scenario ^ " n=32")
        expected
        (soak_digest scenario ~n:32 ~seed:5 ~schedules:24))
    Sweep.all_scenarios
    [
      "d8810f1d48dd4703ddaaafa304f50be2" (* bpaths *);
      "1dfd65091f91c2592aee5e47650b09d0" (* flood *);
      "2381715b12884ecb84412be3b3f3c0ba" (* dfs *);
      "6daf32db3dcbd1fcdb62a31746753b93" (* direct *);
      "e9c22ed8efbf470a1fdeaeb18075b3ce" (* layered *);
      "0251064df1b4f4347a40275752f11f1e" (* election *);
      "76d29b930320b02eca53851aaa418dee" (* maintenance *);
    ]

let test_healing_schedule_digests () =
  List.iter
    (fun (n, count, expected) ->
      let json =
        String.concat "\n"
          (List.init count (fun index ->
               Sch.to_json (Sch.generate_healing ~n ~seed:3 ~index ())))
      in
      check_string (Printf.sprintf "healing schedules n=%d" n) expected
        (md5 json))
    [
      (24, 256, "20635bf1b6c06605f4a8f359ca9dcdd5");
      (256, 64, "b6e80d2551974f3043a85d131198c806");
    ]

(* -- repro files ------------------------------------------------------- *)

let test_repro_roundtrip () =
  let verdict = R.run_schedule Sweep.Flood (Sch.generate ~n:12 ~seed:5 ~index:1 ()) in
  let path = Filename.temp_file "chaos-repro" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      R.write_repro ~path verdict;
      match R.replay path with
      | Error e -> Alcotest.failf "replay: %s" e
      | Ok v ->
          check_bool "scenario preserved" true (v.R.scenario = Sweep.Flood);
          check_bool "schedule preserved" true
            (Sch.equal verdict.R.schedule v.R.schedule);
          (* replaying the file reproduces the verdict exactly *)
          check_string "same verdict JSON" (R.verdict_json verdict)
            (R.verdict_json v))

let test_repro_rejects_foreign_files () =
  let path = Filename.temp_file "chaos-repro" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "{\"name\":\"bench\",\"ns_per_run\":12.0}";
      close_out oc;
      check_bool "bench file refused" true (Result.is_error (R.replay path)))

(* The repro's scenario name is outside input: a misspelled one is an
   error naming it, never an exception or another family.  Every name
   of the scenario table reads back as its own family. *)
let test_repro_scenario_checked () =
  let path = Filename.temp_file "chaos-repro" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let v = R.run_schedule Sweep.Bpaths (Sch.generate ~n:12 ~seed:5 ~index:1 ()) in
      let oc = open_out path in
      output_string oc
        (Printf.sprintf
           "{\"repro\":\"futurenet-chaos\",\"version\":1,\"scenario\":\"bpath\",\
            \"schedule\":%s,\"failed_oracles\":[]}"
           (Sch.to_json v.R.schedule));
      close_out oc;
      match R.replay path with
      | Ok _ -> Alcotest.fail "a misspelled scenario replayed"
      | Error msg -> check_string "error" "unknown scenario \"bpath\"" msg);
  List.iter
    (fun sc ->
      check_bool (Sweep.scenario_name sc) true
        (Sweep.scenario_of_string (Sweep.scenario_name sc) = Some sc))
    Sweep.all_scenarios;
  check_bool "unknown name" true (Sweep.scenario_of_string "all" = None)

(* -- ddmin ------------------------------------------------------------- *)

let test_ddmin_pair () =
  (* failure needs 3 and 7 together; everything else is noise *)
  let still_fails xs = List.mem 3 xs && List.mem 7 xs in
  let input = [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ] in
  Alcotest.(check (list int)) "minimal pair" [ 3; 7 ]
    (Chaos.Shrink.ddmin still_fails input)

let test_ddmin_single_and_empty () =
  Alcotest.(check (list int)) "single culprit" [ 5 ]
    (Chaos.Shrink.ddmin (fun xs -> List.mem 5 xs) [ 9; 5; 1; 4 ]);
  Alcotest.(check (list int)) "empty already fails" []
    (Chaos.Shrink.ddmin (fun _ -> true) [ 1; 2; 3 ])

let test_ddmin_preserves_order () =
  let still_fails xs = List.mem 2 xs && List.mem 8 xs && List.mem 4 xs in
  Alcotest.(check (list int)) "subsequence order kept" [ 2; 4; 8 ]
    (Chaos.Shrink.ddmin still_fails [ 1; 2; 3; 4; 5; 6; 7; 8 ])

(* -- the planted bug --------------------------------------------------- *)

(* A deliberately buggy one-shot broadcast on a path graph: node 0
   walks the payload down the path once, but every node's link-repair
   handler re-sends the tail of the walk with no duplicate
   suppression.  Any link that goes down and comes back up after the
   first wave therefore delivers second copies — a real class of
   fault-handling bug (re-synchronisation without an idempotence
   check).  The oracle is at-most-once delivery. *)
let buggy_n = 8

let run_buggy (s : Sch.t) =
  let graph = B.path buggy_n in
  let engine = Sim.Engine.create () in
  let counts = Array.make buggy_n 0 in
  let tail v = Array.init (buggy_n - v) (fun i -> v + i) in
  let handlers v =
    {
      N.on_start =
        (fun ctx ->
          if v = 0 then N.send_walk ~copy_at:(fun _ -> true) ctx ~walk:(tail 0) ());
      on_message = (fun _ ~via:_ () -> counts.(v) <- counts.(v) + 1);
      on_link_change =
        (fun ctx ~peer ~up ->
          (* BUG: repair resends the tail without asking whether the
             payload already made it across before the outage *)
          if up && peer = v + 1 then
            N.send_walk ~copy_at:(fun _ -> true) ctx ~walk:(tail v) ());
    }
  in
  let net =
    N.create ~engine ~cost:(Hardware.Cost_model.new_model ()) ~graph ~handlers ()
  in
  FP.arm net s.Sch.faults;
  N.start net 0;
  ignore (Sim.Engine.run engine : Sim.Engine.outcome);
  counts

let buggy_fails s = Array.exists (fun c -> c > 1) (run_buggy s)

(* the culprit flap buried in noise: crashes, permanent cuts and
   in-flight drops that the buggy handler survives on their own *)
let planted_schedule =
  {
    Sch.seed = 0;
    index = 0;
    n = buggy_n;
    jitter = 0.0;
    faults =
      [
        FP.Link_set { at = 5.0; u = 1; v = 2; up = false }; (* culprit: down ... *)
        FP.Drop_in_flight { at = 11.0; u = 2; v = 3 };
        FP.Node_set { at = 14.0; node = 5; alive = false };
        FP.Link_set { at = 16.0; u = 1; v = 2; up = true }; (* ... and back up *)
        FP.Node_set { at = 18.0; node = 7; alive = false };
        FP.Link_set { at = 20.0; u = 0; v = 1; up = false };
        FP.Drop_in_flight { at = 21.0; u = 4; v = 5 };
        FP.Link_set { at = 22.0; u = 5; v = 6; up = false };
        FP.Drop_in_flight { at = 23.0; u = 0; v = 1 };
        FP.Node_set { at = 24.0; node = 3; alive = false };
        FP.Link_set { at = 26.0; u = 6; v = 7; up = false };
        FP.Drop_in_flight { at = 27.0; u = 2; v = 3 };
        FP.Node_set { at = 28.0; node = 4; alive = false };
      ];
  }

let test_planted_bug_detected () =
  check_bool "full noisy schedule trips the oracle" true
    (buggy_fails planted_schedule);
  check_bool "fault-free run is clean" false
    (buggy_fails { planted_schedule with Sch.faults = [] })

let test_planted_bug_shrinks_small () =
  let minimal = Chaos.Shrink.minimize ~still_fails:buggy_fails planted_schedule in
  check_bool "minimal schedule still fails" true (buggy_fails minimal);
  let k = List.length minimal.Sch.faults in
  check_bool (Printf.sprintf "shrunk to %d <= 5 fault events" k) true (k <= 5);
  (* 1-minimality: dropping any surviving fault makes the bug vanish *)
  List.iteri
    (fun i _ ->
      let without =
        List.filteri (fun j _ -> j <> i) minimal.Sch.faults
      in
      check_bool
        (Printf.sprintf "fault %d is load-bearing" i)
        false
        (buggy_fails { minimal with Sch.faults = without }))
    minimal.Sch.faults

(* -- oracles over generated soaks -------------------------------------- *)

let test_small_soak_green () =
  List.iter
    (fun scenario ->
      let soak = R.soak scenario ~n:16 ~seed:2 ~schedules:3 () in
      check_int (Sweep.scenario_name scenario) 0 (R.failures soak))
    Sweep.all_scenarios

(* -- first-divergence localisation ------------------------------------- *)

let test_baseline_divergence_localises_fault () =
  (* some schedule's faults must observably perturb an election (they
     run long enough that link faults land mid-run), and the fault-free
     twin's diff must localise the first divergent event *)
  let rec find index =
    if index > 32 then Alcotest.fail "no perturbing schedule in 33 tries"
    else
      let v =
        R.run_schedule Sweep.Election (Sch.generate ~n:16 ~seed:5 ~index ())
      in
      match R.baseline_divergence v with
      | Ok report when contains report "first divergence at event" -> report
      | Ok _ -> find (index + 1)
      | Error e -> Alcotest.failf "baseline_divergence: %s" e
  in
  let report = find 0 in
  check_bool "report names the fault-free side" true
    (contains report "fault-free baseline");
  check_bool "report charges a node" true (contains report "charged to node")

let test_baseline_divergence_deterministic () =
  let v = R.run_schedule Sweep.Bpaths (Sch.generate ~n:16 ~seed:5 ~index:2 ()) in
  match (R.baseline_divergence v, R.baseline_divergence v) with
  | Ok a, Ok b -> check_string "same report twice" a b
  | _ -> Alcotest.fail "baseline_divergence failed on a traced scenario"

let test_baseline_divergence_untraced_is_error () =
  let v =
    R.run_schedule Sweep.Maintenance (Sch.generate ~n:12 ~seed:5 ~index:0 ())
  in
  check_bool "maintenance runs untraced" true
    (Result.is_error (R.baseline_divergence v))

(* The shrunk repro of a flood liveness soak at n=16384: one link
   down at t=1.24 and back up at t=9, healed by one retransmit.  Its
   run records about 482,000 events, which no bounded ring kept whole.
   The verdict is green, and the streamed diff names the same first
   divergence, the candidate's link change, as a diff of two unbounded
   in-memory traces. *)
let test_baseline_divergence_large_flood () =
  let link up at = FP.Link_set { at; u = 15917; v = 16013; up } in
  let s =
    {
      Sch.seed = 7;
      index = 0;
      n = 16384;
      jitter = 0.0;
      faults = [ link false 1.2427223038715089; link true 9.0 ];
    }
  in
  check_bool "well formed" true (Result.is_ok (Sch.well_formed s));
  let v = R.run_schedule ~liveness:true Sweep.Flood s in
  List.iter
    (fun (r : Hardware.Monitor.report) ->
      check_bool (r.monitor ^ ": " ^ r.detail) true r.ok)
    v.R.oracles;
  let recorded (s : Sch.t) =
    let trace = Sim.Trace.create () in
    let config =
      {
        (Core.Broadcast.default_config ()) with
        cost = Sch.cost s;
        trace = Some trace;
        chaos = Some s.Sch.faults;
        recover = Some (Hardware.Recover.default ~n:s.Sch.n);
      }
    in
    ignore
      (Sweep.broadcast Sweep.Flood ~config (Sch.artifact_of s) ~root:0
        : Core.Broadcast.result);
    Sim.Trace.events trace
  in
  let reference =
    Query.Diff.report ~baseline:"fault-free baseline"
      ~candidate:"schedule 0 (2 faults)"
      (Query.Diff.of_events ~c:0.0
         ~baseline:(recorded { s with Sch.faults = [] })
         (recorded s))
  in
  match R.baseline_divergence v with
  | Ok report ->
      check_bool "first divergence at event 21" true
        (contains report "first divergence at event 21\n");
      check_string "equals the unbounded reference diff" reference report
  | Error e -> Alcotest.failf "baseline_divergence: %s" e

(* -- heartbeat --------------------------------------------------------- *)

let heartbeat_lines buf =
  List.filter (fun l -> l <> "")
    (String.split_on_char '\n' (Buffer.contents buf))

let test_soak_heartbeat_records () =
  let buf = Buffer.create 256 in
  let sink = Sim.Sink.buffer buf in
  let hb = R.heartbeat ~every:2 sink in
  ignore (R.soak ~heartbeat:hb Sweep.Bpaths ~n:16 ~seed:2 ~schedules:6 ()
          : R.soak);
  let lines = heartbeat_lines buf in
  (* line 0 is the stream header; beats at done=2,4,6 follow (the
     final completion coincides with a beat) *)
  check_int "header plus one record per beat" 4 (List.length lines);
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  check_bool "first line is a chaos_heartbeat header" true
    (contains (List.hd lines) {|"type":"header"|}
    && contains (List.hd lines) {|"kind":"chaos_heartbeat"|});
  List.iter
    (fun l ->
      check_bool "record type" true (contains l {|"type":"chaos_heartbeat"|}))
    (List.tl lines);
  let final = List.nth lines 3 in
  check_bool "final record reports completion" true
    (contains final {|"done":6,"total":6,"failures":0|});
  (* reuse across sequential soaks: progress restarts, the sink keeps
     accumulating; the header was written once, at creation *)
  ignore (R.soak ~heartbeat:hb Sweep.Bpaths ~n:16 ~seed:2 ~schedules:3 ()
          : R.soak);
  let lines = heartbeat_lines buf in
  check_int "second soak appends" 6 (List.length lines);
  check_bool "second soak restarts its counts" true
    (contains (List.nth lines 5) {|"done":3,"total":3|});
  Sim.Sink.close sink

let test_soak_heartbeat_under_pool () =
  (* beats are mutex-serialised; counts stay exact at any width *)
  Parallel.Pool.with_pool ~jobs:3 (fun pool ->
      let buf = Buffer.create 256 in
      let sink = Sim.Sink.buffer buf in
      let hb = R.heartbeat ~every:4 sink in
      ignore (R.soak ~pool ~heartbeat:hb Sweep.Flood ~n:16 ~seed:2
                ~schedules:8 ()
              : R.soak);
      check_int "header + beats at 4 and 8" 3
        (List.length (heartbeat_lines buf));
      Sim.Sink.close sink)

let test_heartbeat_rejects_bad_every () =
  check_bool "every=0 rejected" true
    (match R.heartbeat ~every:0 (Sim.Sink.buffer (Buffer.create 16)) with
    | (_ : R.heartbeat) -> false
    | exception Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "generation deterministic" `Quick
      test_generation_deterministic;
    Alcotest.test_case "faults before horizon" `Quick
      test_generation_faults_before_horizon;
    Alcotest.test_case "graph regenerates" `Quick test_graph_regenerates;
    Alcotest.test_case "replay ignores foreign links" `Quick
      test_replay_ignores_foreign_links;
    Alcotest.test_case "static schedules cut and crash at 0" `Quick
      test_is_static;
    Alcotest.test_case "codec rejects garbage" `Quick test_codec_rejects_garbage;
    Alcotest.test_case "codec refuses unrunnable schedules" `Quick
      test_codec_refuses_unrunnable;
    Alcotest.test_case "soak json independent of jobs" `Quick
      test_soak_json_independent_of_jobs;
    Alcotest.test_case "traced replay agrees" `Quick test_traced_replay_agrees;
    Alcotest.test_case "verdict digests pinned" `Quick test_verdict_digests;
    Alcotest.test_case "healing schedule digests pinned" `Quick
      test_healing_schedule_digests;
    Alcotest.test_case "repro round-trip" `Quick test_repro_roundtrip;
    Alcotest.test_case "repro rejects foreign files" `Quick
      test_repro_rejects_foreign_files;
    Alcotest.test_case "repro scenario name checked" `Quick
      test_repro_scenario_checked;
    Alcotest.test_case "ddmin pair" `Quick test_ddmin_pair;
    Alcotest.test_case "ddmin single and empty" `Quick test_ddmin_single_and_empty;
    Alcotest.test_case "ddmin preserves order" `Quick test_ddmin_preserves_order;
    Alcotest.test_case "planted bug detected" `Quick test_planted_bug_detected;
    Alcotest.test_case "planted bug shrinks" `Quick test_planted_bug_shrinks_small;
    Alcotest.test_case "small soak green" `Quick test_small_soak_green;
    Alcotest.test_case "baseline divergence localises fault" `Quick
      test_baseline_divergence_localises_fault;
    Alcotest.test_case "baseline divergence deterministic" `Quick
      test_baseline_divergence_deterministic;
    Alcotest.test_case "baseline divergence untraced is error" `Quick
      test_baseline_divergence_untraced_is_error;
    Alcotest.test_case "baseline divergence past any ring" `Quick
      test_baseline_divergence_large_flood;
    Alcotest.test_case "soak heartbeat records" `Quick
      test_soak_heartbeat_records;
    Alcotest.test_case "soak heartbeat under pool" `Quick
      test_soak_heartbeat_under_pool;
    Alcotest.test_case "heartbeat rejects bad every" `Quick
      test_heartbeat_rejects_bad_every;
    QCheck_alcotest.to_alcotest qcheck_codec_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_codec_fuzz;
  ]
