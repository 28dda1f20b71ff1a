(* lib/query: the offline trace-analytics engine.

   Covers the four layers separately — Histo (fixed-bin percentiles),
   Sim.Trace_import (the JSONL reader), Latency (C/P pricing), Engine
   (filter/group/aggregate) — then Diff end to end: a planted one-event
   mutation in a copied stream must be pinned to its exact index and
   node. *)

module H = Query.Histo
module L = Query.Latency
module E = Query.Engine
module D = Query.Diff
module T = Sim.Trace
module TE = Sim.Trace_export
module TI = Sim.Trace_import

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let with_temp_file f =
  let path = Filename.temp_file "query_test" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let write_lines path lines =
  let oc = open_out path in
  List.iter (fun l -> output_string oc l; output_char oc '\n') lines;
  close_out oc

(* -- Histo -------------------------------------------------------------- *)

let test_histo_exact_on_constant_stream () =
  (* the deterministic cost-model case the bench gate relies on: when
     every sample in the winning bin is the same value, the bin-mean
     answer is that value exactly *)
  let h = H.create () in
  for _ = 1 to 1000 do
    H.observe h 0.5
  done;
  check_int "count" 1000 (H.count h);
  check_float "p50 exact" 0.5 (H.quantile h 0.5);
  check_float "p95 exact" 0.5 (H.quantile h 0.95);
  check_float "p99 exact" 0.5 (H.quantile h 0.99);
  check_float "mean exact" 0.5 (H.mean h);
  check_float "min" 0.5 (H.min_value h);
  check_float "max" 0.5 (H.max_value h)

let test_histo_zero_and_extremes () =
  let h = H.create () in
  H.observe h 0.0;
  H.observe h 0.0;
  H.observe h 3.0;
  check_float "p50 hits the zero bin exactly" 0.0 (H.quantile h 0.5);
  check_float "q=0 is the exact min" 0.0 (H.quantile h 0.0);
  check_float "q=1 is the exact max" 3.0 (H.quantile h 1.0);
  (* sub-lo and overflow samples land in their clamp bins, not crash *)
  H.observe h 1e-12;
  H.observe h 1e12;
  check_int "count" 5 (H.count h);
  check_float "max tracks the overflow sample" 1e12 (H.max_value h)

let test_histo_quantile_within_bin_width () =
  (* mixed values: the answer is the mean of the winning bin, within
     one bin width (32 bins/decade ~ 7.5%) of the true quantile *)
  let h = H.create () in
  for i = 1 to 100 do
    H.observe h (float_of_int i)
  done;
  let p50 = H.quantile h 0.5 in
  check_bool "p50 near 50" true (Float.abs (p50 -. 50.0) /. 50.0 < 0.08);
  let p99 = H.quantile h 0.99 in
  check_bool "p99 near 99" true (Float.abs (p99 -. 99.0) /. 99.0 < 0.08)

let test_histo_rejects_bad_samples () =
  let h = H.create () in
  check_bool "negative rejected" true
    (match H.observe h (-1.0) with
    | () -> false
    | exception Invalid_argument _ -> true);
  check_bool "nan rejected" true
    (match H.observe h Float.nan with
    | () -> false
    | exception Invalid_argument _ -> true);
  check_bool "bad quantile q rejected" true
    (match H.quantile h 1.5 with
    | (_ : float) -> false
    | exception Invalid_argument _ -> true)

(* -- Trace_import ------------------------------------------------------- *)

let all_variants : T.event list =
  [
    T.Hop { src = 3; dst = 7; time = 1.5; msg_id = 42 };
    T.Syscall { node = 0; time = 0.0; label = "broadcast-start" };
    T.Send { node = 2; time = 2.0; msg_id = 9; label = "bpaths" };
    T.Receive { node = 5; time = 3.25; msg_id = 9; label = "bpaths" };
    T.Drop { node = 1; time = 4.0; reason = "link down" };
    T.Link_change { u = 2; v = 6; up = false; time = 5.0 };
    T.Custom { time = 6.0; label = "phase \"two\" \\ done" };
  ]

let test_import_roundtrips_every_variant () =
  List.iter
    (fun e ->
      match TI.parse_line (TE.jsonl_of_event e) with
      | Ok (TI.Event e') ->
          check_bool (TE.jsonl_of_event e) true (e = e')
      | Ok _ -> Alcotest.failf "%s: not an event" (TE.jsonl_of_event e)
      | Error msg -> Alcotest.failf "%s: %s" (TE.jsonl_of_event e) msg)
    all_variants

let test_import_headers_both_kinds () =
  (match TI.parse_line (TE.stream_header ()) with
  | Ok (TI.Header { schema_version; kind; fields }) ->
      check_int "schema" TE.schema_version schema_version;
      check_bool "kind" true (kind = "trace");
      check_int "no extra fields" 0 (List.length fields)
  | _ -> Alcotest.fail "default header did not parse as Header");
  match
    TI.parse_line
      (TE.stream_header ~kind:"chaos_heartbeat"
         ~fields:[ ("n", "16"); ("seed", "7") ]
         ())
  with
  | Ok (TI.Header { kind; fields; _ }) ->
      check_bool "kind" true (kind = "chaos_heartbeat");
      check_bool "n field" true (TI.number fields "n" = Some 16.0);
      check_bool "seed field" true (TI.number fields "seed" = Some 7.0)
  | _ -> Alcotest.fail "heartbeat header did not parse as Header"

let test_import_truncation_and_other () =
  (match
     TI.parse_line
       {|{"type":"truncated","time":3,"dropped":2,"dropped_ring":1,"dropped_sink":1}|}
   with
  | Ok (TI.Truncated { dropped; dropped_ring; dropped_sink; _ }) ->
      check_int "dropped" 2 dropped;
      check_int "ring" 1 dropped_ring;
      check_int "sink" 1 dropped_sink
  | _ -> Alcotest.fail "truncation record did not parse");
  match TI.parse_line {|{"type":"chaos_heartbeat","done":3,"total":6}|} with
  | Ok (TI.Other { kind; fields }) ->
      check_bool "kind" true (kind = "chaos_heartbeat");
      check_bool "payload kept" true (TI.number fields "done" = Some 3.0)
  | _ -> Alcotest.fail "unknown record type must pass through as Other"

let test_import_rejects_garbage () =
  let rejected s =
    match TI.parse_line s with Error _ -> true | Ok _ -> false
  in
  check_bool "not json" true (rejected "definitely not json");
  check_bool "missing fields" true (rejected {|{"type":"hop","time":1}|});
  check_bool "nested objects" true (rejected {|{"type":"x","a":{"b":1}}|});
  check_bool "future schema refused" true
    (rejected {|{"type":"header","schema_version":99}|})

(* -- Latency ------------------------------------------------------------ *)

(* One packet: injected at t=0, two hops (elapsed 1 and 2), delivered
   at t=4.  Under the new model (C=0, P=1) the hops are pure wait and
   the delivery is pure work. *)
let hand_trace : T.event list =
  [
    T.Send { node = 0; time = 0.0; msg_id = 7; label = "m" };
    T.Hop { src = 0; dst = 1; time = 1.0; msg_id = 7 };
    T.Hop { src = 1; dst = 2; time = 3.0; msg_id = 7 };
    T.Receive { node = 2; time = 4.0; msg_id = 7; label = "m" };
  ]

(* The aggregate of a whole event list, fed in order. *)
let latency events =
  let t = L.create () in
  List.iter (L.observe t) events;
  t

let test_latency_hand_trace () =
  let lat = latency hand_trace in
  check_int "messages" 1 (L.messages lat);
  check_int "deliveries" 1 (L.deliveries lat);
  check_int "orphans" 0 (L.unknown lat);
  check_int "hop samples" 2 (H.count (L.hop lat));
  check_float "hop max" 2.0 (H.max_value (L.hop lat));
  check_float "delivery sample" 1.0 (H.quantile (L.delivery lat) 0.5);
  check_float "e2e span" 4.0 (H.quantile (L.e2e lat) 0.5);
  check_float "C work (C=0: hops are all wait)" 0.0 (L.c_work lat);
  check_float "P work" 1.0 (L.p_work lat);
  check_float "wait" 3.0 (L.wait lat);
  match L.links lat with
  | [ (l1, s1); (l2, s2) ] ->
      check_bool "links sorted deterministically" true
        (l1 = (0, 1) && l2 = (1, 2));
      check_bool "per-link counts" true
        (Result.map
           (List.map (fun l ->
                Result.bind (Sim.Json.member "count" l) Sim.Json.to_int))
           (Result.bind (Sim.Json.parse (L.to_json lat)) (fun j ->
                Result.bind (Sim.Json.member "links" j) Sim.Json.to_list))
        = Ok [ Ok 1; Ok 1 ]);
      check_float "link 0->1 mean" 1.0 (L.link_mean s1);
      check_float "link 1->2 mean" 2.0 (L.link_mean s2)
  | ls -> Alcotest.failf "expected 2 links, got %d" (List.length ls)

let test_latency_orphans_counted () =
  let lat =
    latency [ T.Hop { src = 0; dst = 1; time = 1.0; msg_id = 99 } ]
  in
  check_int "orphan hop counted, not guessed at" 1 (L.unknown lat);
  check_int "no samples" 0 (H.count (L.hop lat))

(* -- Engine ------------------------------------------------------------- *)

let engine_trace : T.event list =
  [
    T.Syscall { node = 0; time = 0.0; label = "start" };
    T.Send { node = 0; time = 0.0; msg_id = 1; label = "ph" };
    T.Hop { src = 0; dst = 1; time = 1.0; msg_id = 1 };
    T.Receive { node = 1; time = 1.0; msg_id = 1; label = "ph" };
    T.Drop { node = 1; time = 2.0; reason = "dead link" };
    T.Link_change { u = 0; v = 1; up = false; time = 3.0 };
    T.Custom { time = 4.0; label = "end" };
  ]

let test_engine_counts_and_kinds () =
  let r = E.run_events ~source:"test" engine_trace in
  check_int "events" 7 r.E.events;
  check_int "matched" 7 r.E.matched;
  check_float "t_min" 0.0 r.E.t_min;
  check_float "t_max" 4.0 r.E.t_max;
  List.iter
    (fun (k, want) ->
      check_int (E.kind_name k) want (List.assoc k r.E.by_kind))
    [
      (E.Hop, 1); (E.Syscall, 1); (E.Send, 1); (E.Receive, 1);
      (E.Drop, 1); (E.Link_change, 1); (E.Custom, 1);
    ]

let test_engine_filters () =
  let only filter = (E.run_events ~filter ~source:"t" engine_trace).E.matched in
  check_int "kind filter" 1 (only { E.no_filter with E.kinds = [ E.Hop ] });
  (* node 1: the hop (dst), the receive, the drop, the link change (v) *)
  check_int "node filter" 4 (only { E.no_filter with E.nodes = [ 1 ] });
  check_int "link filter" 2 (only { E.no_filter with E.link = Some (0, 1) });
  check_int "phase filter" 2 (only { E.no_filter with E.phase = Some "ph" });
  check_int "window"
    2
    (only { E.no_filter with E.since = Some 2.0; E.until = Some 3.0 })

let test_engine_group_by_kind () =
  let r =
    E.run_events ~group_by:E.By_kind ~source:"t" engine_trace
  in
  match r.E.groups with
  | Some (E.By_kind, groups) ->
      check_int "seven kinds present" 7 (List.length groups);
      List.iter (fun g -> check_int g.E.g_key 1 g.E.g_count) groups
  | _ -> Alcotest.fail "expected by-kind groups"

let test_engine_run_file_streaming () =
  with_temp_file (fun path ->
      write_lines path
        (TE.stream_header ~fields:[ ("n", "4") ] ()
         :: List.map TE.jsonl_of_event engine_trace
        @ [
            {|{"type":"chaos_heartbeat","done":1,"total":1}|};
            {|{"type":"truncated","time":4,"dropped":5,"dropped_ring":5,"dropped_sink":0}|};
          ]);
      match E.run_file path with
      | Error msg -> Alcotest.fail msg
      | Ok r ->
          check_int "lines" 10 r.E.lines;
          check_int "events" 7 r.E.events;
          check_bool "header seen" true
            (match r.E.header with
            | Some (v, "trace", _) -> v = TE.schema_version
            | _ -> false);
          check_bool "truncation surfaced" true
            (r.E.truncated = Some (5, 5, 0));
          check_bool "telemetry counted as other" true
            (List.mem_assoc "chaos_heartbeat" r.E.other))

let test_engine_run_file_reports_bad_line () =
  with_temp_file (fun path ->
      write_lines path [ TE.stream_header (); "garbage" ];
      match E.run_file path with
      | Error msg ->
          check_bool "error names the line" true
            (String.length msg > 0
            && String.contains msg ':'
            &&
            let rec has_sub i =
              i + 2 <= String.length msg
              && (String.sub msg i 2 = ":2" || has_sub (i + 1))
            in
            has_sub 0)
      | Ok _ -> Alcotest.fail "malformed stream must not parse")

(* -- Diff --------------------------------------------------------------- *)

let test_diff_identical () =
  match D.of_events ~baseline:engine_trace engine_trace with
  | D.Identical n -> check_int "event count" 7 n
  | D.Diverged _ -> Alcotest.fail "identical traces reported diverged"

let test_diff_exit_code_is_distinct () =
  (* pinned: the CLI exit-code table in the README documents 9 *)
  check_int "diff exit code" 9 D.exit_code

(* The acceptance test: copy a stream, mutate exactly one event, and
   the diff must pin that event's index and node. *)
let test_diff_pins_planted_mutation () =
  with_temp_file (fun base_path ->
      with_temp_file (fun mut_path ->
          let lines =
            TE.stream_header ()
            :: List.map TE.jsonl_of_event hand_trace
          in
          write_lines base_path lines;
          (* perturb the receive (stream line 5 = event index 3): the
             delivery lands at t=5 instead of t=4 *)
          let mutated =
            List.map
              (fun l ->
                if l = TE.jsonl_of_event (List.nth hand_trace 3) then
                  TE.jsonl_of_event
                    (T.Receive { node = 2; time = 5.0; msg_id = 7; label = "m" })
                else l)
              lines
          in
          check_bool "mutation applied" true (mutated <> lines);
          write_lines mut_path mutated;
          match D.of_files ~baseline:base_path mut_path with
          | Error msg -> Alcotest.fail msg
          | Ok (D.Identical _) -> Alcotest.fail "mutation not detected"
          | Ok (D.Diverged d) ->
              check_int "index pinned" 3 d.D.index;
              check_bool "node pinned" true (d.D.node = Some 2);
              check_bool "baseline side is the original" true
                (d.D.baseline = Some (List.nth hand_trace 3));
              check_bool "chain reaches the injection" true
                (List.exists
                   (fun (_, _, e) ->
                     e = List.nth hand_trace 0)
                   d.D.chain)))

let test_diff_short_stream () =
  let short = [ List.hd engine_trace ] in
  match D.of_events ~baseline:engine_trace short with
  | D.Diverged d ->
      check_int "diverges right after the common prefix" 1 d.D.index;
      check_bool "baseline has an event" true (d.D.baseline <> None);
      check_bool "candidate ended" true (d.D.candidate = None)
  | D.Identical _ -> Alcotest.fail "prefix must not count as identical"

let test_diff_window_bounds_chain () =
  (* a window of 2 keeps only the 2 nearest common events: the chain
     cannot reach the injection any more, but the divergence index is
     still absolute *)
  match
    D.of_events ~window:2 ~baseline:hand_trace
      (List.mapi
         (fun i e ->
           if i = 3 then T.Receive { node = 2; time = 9.0; msg_id = 7; label = "m" }
           else e)
         hand_trace)
  with
  | D.Diverged d ->
      check_int "absolute index survives the window" 3 d.D.index;
      List.iter
        (fun (i, _, _) -> check_bool "chain indices absolute" true (i >= 1))
        d.D.chain
  | D.Identical _ -> Alcotest.fail "mutation not detected"

(* Two 300,000-event streams, one event changed near the end: the
   lockstep diff keeps only its window, yet reports the index, and the
   chain's indices, from the start of the streams. *)
let test_diff_of_seq_past_any_ring () =
  let length = 300_000 and at = 290_000 in
  let stream ~changed =
    Seq.init length (fun i ->
        T.Syscall
          {
            node = i mod 4;
            time = float_of_int i;
            label = (if changed && i = at then "changed" else "x");
          })
  in
  match D.of_seq ~baseline:(stream ~changed:false) (stream ~changed:true) with
  | D.Diverged d ->
      check_int "index" at d.D.index;
      check_bool "node" true (d.D.node = Some (at mod 4));
      (* each activation queues behind its node's previous one *)
      Alcotest.(check (list int))
        "chain indices absolute"
        (List.init 8 (fun k -> at - (4 * (k + 1))))
        (List.map (fun (i, _, _) -> i) d.D.chain)
  | D.Identical _ -> Alcotest.fail "mutation not detected"

let suite =
  [
    Alcotest.test_case "histo exact on constant stream" `Quick
      test_histo_exact_on_constant_stream;
    Alcotest.test_case "histo zero and extremes" `Quick
      test_histo_zero_and_extremes;
    Alcotest.test_case "histo quantile within bin width" `Quick
      test_histo_quantile_within_bin_width;
    Alcotest.test_case "histo rejects bad samples" `Quick
      test_histo_rejects_bad_samples;
    Alcotest.test_case "import round-trips every variant" `Quick
      test_import_roundtrips_every_variant;
    Alcotest.test_case "import headers both kinds" `Quick
      test_import_headers_both_kinds;
    Alcotest.test_case "import truncation and telemetry" `Quick
      test_import_truncation_and_other;
    Alcotest.test_case "import rejects garbage" `Quick
      test_import_rejects_garbage;
    Alcotest.test_case "latency hand trace" `Quick test_latency_hand_trace;
    Alcotest.test_case "latency orphans counted" `Quick
      test_latency_orphans_counted;
    Alcotest.test_case "engine counts and kinds" `Quick
      test_engine_counts_and_kinds;
    Alcotest.test_case "engine filters" `Quick test_engine_filters;
    Alcotest.test_case "engine group by kind" `Quick test_engine_group_by_kind;
    Alcotest.test_case "engine run_file streaming" `Quick
      test_engine_run_file_streaming;
    Alcotest.test_case "engine run_file reports bad line" `Quick
      test_engine_run_file_reports_bad_line;
    Alcotest.test_case "diff identical" `Quick test_diff_identical;
    Alcotest.test_case "diff exit code distinct" `Quick
      test_diff_exit_code_is_distinct;
    Alcotest.test_case "diff pins planted mutation" `Quick
      test_diff_pins_planted_mutation;
    Alcotest.test_case "diff short stream" `Quick test_diff_short_stream;
    Alcotest.test_case "diff of_seq past any ring" `Quick
      test_diff_of_seq_past_any_ring;
    Alcotest.test_case "diff window bounds chain" `Quick
      test_diff_window_bounds_chain;
  ]
