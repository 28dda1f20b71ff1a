(* Hardware.Registry: instrument semantics, the disabled registry, and
   agreement between the published instruments and the exact Metrics
   accounting when real protocol runs publish into one registry. *)

module R = Hardware.Registry
module BC = Core.Broadcast
module BP = Core.Branching_paths
module EL = Core.Election
module B = Netgraph.Builders
module G = Netgraph.Graph

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A field of one instrument, read back from the registry's JSON
   export: how the CLI and bench reports see it. *)
let field conv r name key =
  Result.to_option
    (Result.bind (Sim.Json.parse (R.to_json r)) (fun j ->
         Result.bind (Sim.Json.member name j) (fun i ->
             Result.bind (Sim.Json.member key i) conv)))

let int_field = field Sim.Json.to_int
let float_field = field Sim.Json.to_float
let check_count msg expected r name =
  Alcotest.(check (option int)) msg (Some expected) (int_field r name "count")

let test_counter_and_gauge_basics () =
  let r = R.create () in
  let c = R.counter r "t.count" ~help:"test" in
  R.incr c;
  R.incr c;
  R.add c 3;
  check_int "counter accumulates" 5 (R.counter_value c);
  (* registering the same name returns the same instrument *)
  let c' = R.counter r "t.count" in
  R.incr c';
  check_int "same handle" 6 (R.counter_value c);
  let g = R.gauge r "t.gauge" in
  R.set g 2.5;
  R.set g 7.0;
  check_bool "gauge keeps last" true (float_field r "t.gauge" "value" = Some 7.0);
  check_bool "find_counter" true (R.find_counter r "t.count" <> None);
  check_bool "find miss" true (R.find_counter r "t.nope" = None);
  (* a name registered as one kind cannot be re-registered as another *)
  check_bool "kind mismatch raises" true
    (try
       ignore (R.gauge r "t.count" : R.gauge);
       false
     with Invalid_argument _ -> true)

let test_histogram_bucketing () =
  let r = R.create () in
  let h = R.histogram r "t.hist" ~buckets:[| 1.0; 2.0; 4.0 |] in
  List.iter (R.observe h) [ 0.5; 1.0; 1.5; 3.0; 100.0 ];
  check_count "count" 5 r "t.hist";
  check_bool "sum" true (float_field r "t.hist" "sum" = Some 106.0);
  (match R.histogram_buckets h with
  | [ (b1, c1); (b2, c2); (b3, c3); (binf, cinf) ] ->
      check_bool "bounds" true (b1 = 1.0 && b2 = 2.0 && b3 = 4.0);
      check_bool "last is +inf" true (binf = infinity);
      (* <=1: 0.5 and 1.0; <=2: 1.5; <=4: 3.0; over: 100.0 *)
      check_int "bin <=1" 2 c1;
      check_int "bin <=2" 1 c2;
      check_int "bin <=4" 1 c3;
      check_int "bin +inf" 1 cinf
  | l -> Alcotest.failf "expected 4 bins, got %d" (List.length l));
  check_bool "empty buckets rejected" true
    (try
       ignore (R.histogram r "t.bad" ~buckets:[||] : R.histogram);
       false
     with Invalid_argument _ -> true);
  check_bool "non-increasing rejected" true
    (try
       ignore (R.histogram r "t.bad2" ~buckets:[| 1.0; 1.0 |] : R.histogram);
       false
     with Invalid_argument _ -> true)

let test_disabled_registry_is_inert () =
  let r = R.disabled () in
  check_bool "not enabled" false (R.enabled r);
  let c = R.counter r "t.c" in
  R.incr c;
  R.add c 10;
  check_int "inert counter" 0 (R.counter_value c);
  let h = R.histogram r "t.h" ~buckets:[| 1.0 |] in
  R.observe h 0.5;
  check_int "inert histogram" 0
    (List.fold_left (fun acc (_, c) -> acc + c) 0 (R.histogram_buckets h))

(* first index of [needle] in [hay], or -1 *)
let index_of hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then -1
    else if String.sub hay i nn = needle then i
    else go (i + 1)
  in
  go 0

let test_json_and_summary_render () =
  let r = R.create () in
  R.incr (R.counter r "b.second");
  R.set (R.gauge r "a.first") 1.5;
  let json = R.to_json r in
  let ia = index_of json "\"a.first\"" in
  let ib = index_of json "\"b.second\"" in
  check_bool "json mentions both" true (ia >= 0 && ib >= 0);
  check_bool "deterministic" true (String.equal json (R.to_json r));
  check_bool "sorted" true (ia < ib);
  let buf = Buffer.create 128 in
  let out = Format.formatter_of_buffer buf in
  R.pp_summary out r;
  Format.pp_print_flush out ();
  check_bool "summary non-empty" true (Buffer.length buf > 0)

(* Names are free-form strings: control bytes and quotes must come
   back out of Registry.to_json through the one JSON reader intact. *)
let test_json_parses_back () =
  let r = R.create () in
  let odd = "odd\tname\r\"q\"\\ \001end" in
  R.add (R.counter r odd) 3;
  R.set (R.gauge r "g") 2.5;
  R.observe (R.histogram r ~buckets:[| 1.0 |] "h") 0.5;
  match Sim.Json.parse (R.to_json r) with
  | Error msg -> Alcotest.failf "Registry.to_json is not JSON: %s" msg
  | Ok json ->
      let field path =
        List.fold_left (fun j k -> Result.bind j (Sim.Json.member k)) (Ok json)
          path
      in
      check_bool "odd counter" true
        (Result.bind (field [ odd; "value" ]) Sim.Json.to_int = Ok 3);
      check_bool "gauge" true
        (Result.bind (field [ "g"; "value" ]) Sim.Json.to_float = Ok 2.5);
      check_bool "histogram" true
        (Result.bind (field [ "h"; "count" ]) Sim.Json.to_int = Ok 1)

(* Integration: the instruments a broadcast publishes must agree with
   the exact Metrics accounting the result reports. *)
let test_broadcast_publishes_consistent_instruments () =
  let g = B.grid ~rows:4 ~cols:5 in
  let reg = R.create () in
  let config = { (BC.default_config ()) with registry = Some reg } in
  let r = BP.run ~config ~graph:g ~root:0 () in
  let counter name =
    match R.find_counter reg name with
    | Some c -> R.counter_value c
    | None -> Alcotest.failf "missing counter %s" name
  in
  check_int "net.syscalls = result" r.BC.syscalls (counter "net.syscalls");
  check_int "net.hops = result" r.BC.hops (counter "net.hops");
  check_int "net.sends = result" r.BC.sends (counter "net.sends");
  check_int "net.drops = result" r.BC.drops (counter "net.drops");
  check_count "one latency sample per hop" r.BC.hops reg "net.hop_latency";
  check_count "one header sample per send" r.BC.sends reg "net.header_len";
  check_count "one per-node sample per node" (G.n g) reg "net.syscalls_per_node";
  check_bool "per-node sum = total syscalls" true
    (float_field reg "net.syscalls_per_node" "sum"
    = Some (float_of_int r.BC.syscalls));
  (match R.find_counter reg "bpaths.paths_sent" with
  | Some c -> check_bool "bpaths counted its paths" true (R.counter_value c > 0)
  | None -> Alcotest.fail "missing bpaths.paths_sent")

let test_election_publishes_consistent_instruments () =
  let g = B.ring 12 in
  let reg = R.create () in
  let r = EL.run ~registry:reg ~graph:g () in
  let counter name =
    match R.find_counter reg name with
    | Some c -> R.counter_value c
    | None -> Alcotest.failf "missing counter %s" name
  in
  check_int "election.tours = outcome" r.EL.tours (counter "election.tours");
  check_int "election.captures = outcome" r.EL.captures
    (counter "election.captures");
  check_bool "election.route_len registered" true
    (int_field reg "election.route_len" "count" <> None)

(* A run whose bounded trace overflowed must surface the eviction
   count as sim.trace.dropped_ring — the profiler's signal that any
   DAG it builds from this trace is incomplete. *)
let test_trace_eviction_published () =
  let g = B.path 16 in
  let trace = Sim.Trace.create ~capacity:8 () in
  let reg = R.create () in
  let config =
    { (BC.default_config ()) with trace = Some trace; registry = Some reg }
  in
  ignore (BP.run ~config ~graph:g ~root:0 () : BC.result);
  check_bool "the run overflowed the ring" true
    (Sim.Trace.dropped_ring trace > 0);
  (match R.find_counter reg "sim.trace.dropped_ring" with
  | Some c ->
      check_int "counter = trace accounting" (Sim.Trace.dropped_ring trace)
        (R.counter_value c)
  | None -> Alcotest.fail "missing sim.trace.dropped_ring");
  check_bool "ring loss is not sink loss" true
    (R.find_counter reg "sim.trace.dropped_sink" = None);
  (* a run that fits in its ring must not register the instrument: the
     counter's presence is itself the warning *)
  let roomy = Sim.Trace.create () in
  let reg2 = R.create () in
  let config2 =
    { (BC.default_config ()) with trace = Some roomy; registry = Some reg2 }
  in
  ignore (BP.run ~config:config2 ~graph:g ~root:0 () : BC.result);
  check_bool "no loss, no instrument" true
    (R.find_counter reg2 "sim.trace.dropped_ring" = None)

(* Sink backpressure during a streamed run surfaces through the other
   counter, so ring truncation and sink refusal stay distinguishable
   in the registry. *)
let test_trace_sink_drops_published () =
  let g = B.path 16 in
  let buf = Buffer.create 256 in
  (* enough budget for a few lines, then refuse the rest *)
  let inner = Sim.Sink.buffer buf in
  let count = ref 0 in
  let sink =
    Sim.Sink.create
      ~emit:(fun line ->
        incr count;
        if !count <= 5 then Sim.Sink.emit inner line else false)
      ()
  in
  let trace = Sim.Trace_export.stream_trace sink in
  let reg = R.create () in
  let config =
    { (BC.default_config ()) with trace = Some trace; registry = Some reg }
  in
  ignore (BP.run ~config ~graph:g ~root:0 () : BC.result);
  check_bool "the sink refused events" true
    (Sim.Trace.dropped_sink trace > 0);
  check_int "streaming keeps nothing in the ring" 0
    (Sim.Trace.dropped_ring trace);
  (match R.find_counter reg "sim.trace.dropped_sink" with
  | Some c ->
      check_int "counter = trace accounting" (Sim.Trace.dropped_sink trace)
        (R.counter_value c)
  | None -> Alcotest.fail "missing sim.trace.dropped_sink");
  check_bool "sink loss is not ring loss" true
    (R.find_counter reg "sim.trace.dropped_ring" = None)

(* A disabled (or absent) registry must not change the measured
   execution at all. *)
let test_registry_does_not_perturb_run () =
  let g = B.hypercube 4 in
  let bare = BP.run ~graph:g ~root:0 () in
  let reg = R.create () in
  let config = { (BC.default_config ()) with registry = Some reg } in
  let instrumented = BP.run ~config ~graph:g ~root:0 () in
  check_int "same syscalls" bare.BC.syscalls instrumented.BC.syscalls;
  check_int "same hops" bare.BC.hops instrumented.BC.hops;
  check_bool "same time" true (bare.BC.time = instrumented.BC.time)

(* -- merge (the parallel sweep combine) ------------------------------- *)

let test_merge_counters_sum () =
  let a = R.create () and b = R.create () in
  R.add (R.counter a "t.c") 5;
  R.add (R.counter b "t.c") 7;
  R.add (R.counter b "t.only_b") 3;
  R.merge ~into:a b;
  check_int "summed" 12 (R.counter_value (R.counter a "t.c"));
  check_int "missing name registered" 3
    (R.counter_value (R.counter a "t.only_b"));
  (* src is untouched *)
  check_int "src intact" 7 (R.counter_value (R.counter b "t.c"))

let test_merge_histograms_add () =
  let bounds = [| 1.0; 2.0; 4.0 |] in
  let a = R.create () and b = R.create () in
  let ha = R.histogram a ~buckets:bounds "t.h" in
  let hb = R.histogram b ~buckets:bounds "t.h" in
  List.iter (R.observe ha) [ 0.5; 3.0 ];
  List.iter (R.observe hb) [ 0.5; 1.5; 100.0 ];
  R.merge ~into:a b;
  check_count "count added" 5 a "t.h";
  Alcotest.(check (option (float 1e-9))) "sum added" (Some 105.5)
    (float_field a "t.h" "sum");
  Alcotest.(check (list int)) "bins added pairwise" [ 2; 1; 1; 1 ]
    (List.map snd (R.histogram_buckets ha))

let test_merge_gauges_keep_peak () =
  let a = R.create () and b = R.create () in
  R.set (R.gauge a "t.g") 2.0;
  R.set (R.gauge b "t.g") 5.0;
  R.merge ~into:a b;
  check_bool "peak wins" true (float_field a "t.g" "value" = Some 5.0);
  (* and the other direction: into already holds the peak *)
  let c = R.create () in
  R.set (R.gauge c "t.g") 1.0;
  R.merge ~into:a c;
  check_bool "peak survives lower src" true (float_field a "t.g" "value" = Some 5.0)

let test_merge_is_order_independent () =
  let observe r k =
    R.add (R.counter r "t.c") k;
    R.observe (R.histogram r ~buckets:[| 1.0; 10.0 |] "t.h") (float_of_int k)
  in
  let srcs () = List.map (fun k -> let r = R.create () in observe r k; r) [ 1; 5; 9 ] in
  let fold order =
    let into = R.create () in
    List.iter (fun r -> R.merge ~into r) order;
    R.to_json into
  in
  let fwd = srcs () and bwd = srcs () in
  Alcotest.(check string) "any merge order, same registry" (fold fwd)
    (fold (List.rev bwd))

let test_merge_mismatches_raise () =
  let a = R.create () and b = R.create () in
  ignore (R.counter a "t.x");
  ignore (R.gauge b "t.x");
  check_bool "kind mismatch raises" true
    (match R.merge ~into:a b with
    | () -> false
    | exception Invalid_argument _ -> true);
  let c = R.create () and d = R.create () in
  ignore (R.histogram c ~buckets:[| 1.0 |] "t.h");
  ignore (R.histogram d ~buckets:[| 2.0 |] "t.h");
  check_bool "bucket bounds mismatch raises" true
    (match R.merge ~into:c d with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_merge_disabled () =
  let into = R.disabled () in
  let src = R.create () in
  R.add (R.counter src "t.c") 4;
  R.merge ~into src;
  check_bool "into disabled is a no-op" true (not (R.enabled into));
  (* disabled source contributes zeros *)
  let live = R.create () in
  R.add (R.counter live "t.c") 2;
  R.merge ~into:live (R.disabled ());
  check_int "disabled src adds nothing" 2 (R.counter_value (R.counter live "t.c"))

let suite =
  [
    Alcotest.test_case "counter and gauge basics" `Quick
      test_counter_and_gauge_basics;
    Alcotest.test_case "histogram bucketing" `Quick test_histogram_bucketing;
    Alcotest.test_case "disabled registry is inert" `Quick
      test_disabled_registry_is_inert;
    Alcotest.test_case "json and summary render" `Quick
      test_json_and_summary_render;
    Alcotest.test_case "json parses back" `Quick test_json_parses_back;
    Alcotest.test_case "broadcast publishes consistent instruments" `Quick
      test_broadcast_publishes_consistent_instruments;
    Alcotest.test_case "election publishes consistent instruments" `Quick
      test_election_publishes_consistent_instruments;
    Alcotest.test_case "trace eviction published" `Quick
      test_trace_eviction_published;
    Alcotest.test_case "trace sink drops published" `Quick
      test_trace_sink_drops_published;
    Alcotest.test_case "registry does not perturb the run" `Quick
      test_registry_does_not_perturb_run;
    Alcotest.test_case "merge sums counters" `Quick test_merge_counters_sum;
    Alcotest.test_case "merge adds histogram bins" `Quick
      test_merge_histograms_add;
    Alcotest.test_case "merge keeps gauge peak" `Quick
      test_merge_gauges_keep_peak;
    Alcotest.test_case "merge order-independent" `Quick
      test_merge_is_order_independent;
    Alcotest.test_case "merge mismatches raise" `Quick
      test_merge_mismatches_raise;
    Alcotest.test_case "merge with disabled registries" `Quick
      test_merge_disabled;
  ]
