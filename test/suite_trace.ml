(* Tests for Sim.Trace. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let hop t = Sim.Trace.Hop { src = 0; dst = 1; time = t; msg_id = 0 }
let syscall t = Sim.Trace.Syscall { node = 0; time = t; label = "x" }

let test_record_order () =
  let t = Sim.Trace.create () in
  Sim.Trace.record t (hop 1.0);
  Sim.Trace.record t (syscall 2.0);
  Sim.Trace.record t (hop 3.0);
  check_int "length" 3 (Sim.Trace.length t);
  Alcotest.(check (list (float 1e-9)))
    "chronological" [ 1.0; 2.0; 3.0 ]
    (List.map Sim.Trace.time_of (Sim.Trace.events t))

let test_disabled () =
  let t = Sim.Trace.disabled () in
  Sim.Trace.record t (hop 1.0);
  check_int "nothing recorded" 0 (Sim.Trace.length t)

let test_capacity_keeps_recent () =
  let t = Sim.Trace.create ~capacity:10 () in
  for i = 1 to 100 do
    Sim.Trace.record t (hop (float_of_int i))
  done;
  let events = Sim.Trace.events t in
  check_bool "at most capacity" true (List.length events <= 10);
  (* the newest event must be present *)
  check_bool "newest kept" true
    (List.exists (fun e -> Sim.Trace.time_of e = 100.0) events)

let times t = List.map Sim.Trace.time_of (Sim.Trace.events t)

let test_capacity_wraparound_order () =
  (* 20 records into an 8-slot ring: exactly the newest 8 survive, in
     chronological order, through multiple lazy trims *)
  let t = Sim.Trace.create ~capacity:8 () in
  for i = 1 to 20 do
    Sim.Trace.record t (hop (float_of_int i))
  done;
  check_int "length = capacity" 8 (Sim.Trace.length t);
  Alcotest.(check (list (float 1e-9)))
    "newest 8, oldest first"
    [ 13.0; 14.0; 15.0; 16.0; 17.0; 18.0; 19.0; 20.0 ]
    (times t)

let test_capacity_boundaries () =
  (* exactly at capacity: nothing dropped *)
  let t = Sim.Trace.create ~capacity:4 () in
  for i = 1 to 4 do
    Sim.Trace.record t (hop (float_of_int i))
  done;
  check_int "full, nothing lost" 4 (Sim.Trace.length t);
  Alcotest.(check (list (float 1e-9)))
    "all four in order" [ 1.0; 2.0; 3.0; 4.0 ] (times t);
  (* one over: the oldest is the one to go *)
  Sim.Trace.record t (hop 5.0);
  check_int "still capacity" 4 (Sim.Trace.length t);
  Alcotest.(check (list (float 1e-9)))
    "oldest evicted" [ 2.0; 3.0; 4.0; 5.0 ] (times t)

let test_recorded_and_dropped () =
  let t = Sim.Trace.create ~capacity:4 () in
  check_int "fresh: nothing recorded" 0 (Sim.Trace.recorded t);
  check_int "fresh: nothing dropped" 0 (Sim.Trace.dropped t);
  for i = 1 to 4 do
    Sim.Trace.record t (hop (float_of_int i))
  done;
  check_int "at capacity: recorded" 4 (Sim.Trace.recorded t);
  check_int "at capacity: no loss yet" 0 (Sim.Trace.dropped t);
  for i = 5 to 10 do
    Sim.Trace.record t (hop (float_of_int i))
  done;
  check_int "recorded counts evictions too" 10 (Sim.Trace.recorded t);
  check_int "dropped = recorded - retained" 6 (Sim.Trace.dropped t);
  (* an unbounded recorder never drops *)
  let u = Sim.Trace.create () in
  for i = 1 to 100 do
    Sim.Trace.record u (hop (float_of_int i))
  done;
  check_int "unbounded: no loss" 0 (Sim.Trace.dropped u)

let test_time_of_variants () =
  let check_time e expected = check_bool "time_of" true (Sim.Trace.time_of e = expected) in
  check_time (Sim.Trace.Send { node = 0; time = 1.5; msg_id = 0; label = "" }) 1.5;
  check_time (Sim.Trace.Receive { node = 0; time = 2.5; msg_id = 0; label = "" }) 2.5;
  check_time (Sim.Trace.Drop { node = 0; time = 3.5; reason = "" }) 3.5;
  check_time (Sim.Trace.Link_change { u = 0; v = 1; up = false; time = 4.5 }) 4.5;
  check_time (Sim.Trace.Custom { time = 5.5; label = "" }) 5.5

(* streaming mode: every event goes to the consumer, nothing is
   retained, and sink refusals are accounted separately from ring
   evictions *)
let test_streaming_retains_nothing () =
  let seen = ref 0 in
  let t = Sim.Trace.streaming ~consumer:(fun _ -> incr seen; true) () in
  check_bool "enabled" true (Sim.Trace.enabled t);
  for i = 1 to 5 do
    Sim.Trace.record t (hop (float_of_int i))
  done;
  check_int "consumer saw every event" 5 !seen;
  check_int "ring retains nothing" 0 (Sim.Trace.length t);
  check_int "recorded still counts" 5 (Sim.Trace.recorded t);
  check_int "an empty ring is not an eviction" 0 (Sim.Trace.dropped_ring t);
  check_int "no sink refusals" 0 (Sim.Trace.dropped_sink t);
  check_int "dropped total" 0 (Sim.Trace.dropped t)

let test_streaming_sink_refusals_counted () =
  let seen = ref 0 in
  let t =
    Sim.Trace.streaming ~consumer:(fun _ -> incr seen; !seen <= 3) ()
  in
  for i = 1 to 8 do
    Sim.Trace.record t (hop (float_of_int i))
  done;
  check_int "refusals are sink drops" 5 (Sim.Trace.dropped_sink t);
  check_int "not ring drops" 0 (Sim.Trace.dropped_ring t);
  check_int "total" 5 (Sim.Trace.dropped t)

(* the CLI's form: a streaming trace that also keeps every event when
   no sink takes them *)
let test_streaming_keep_also_fills_ring () =
  let seen = ref 0 in
  let t =
    Sim.Trace.streaming ~keep:true ~consumer:(fun _ -> incr seen; true) ()
  in
  for i = 1 to 10 do
    Sim.Trace.record t (hop (float_of_int i))
  done;
  check_int "consumer saw every event" 10 !seen;
  check_int "every event kept" 10 (Sim.Trace.length t);
  check_int "no ring drops" 0 (Sim.Trace.dropped_ring t);
  check_int "no sink drops" 0 (Sim.Trace.dropped_sink t);
  Alcotest.(check (list (float 1e-9)))
    "all ten, oldest first"
    (List.init 10 (fun i -> float_of_int (i + 1)))
    (times t)

let suite =
  [
    Alcotest.test_case "record order" `Quick test_record_order;
    Alcotest.test_case "disabled" `Quick test_disabled;
    Alcotest.test_case "capacity keeps recent" `Quick test_capacity_keeps_recent;
    Alcotest.test_case "capacity wraparound order" `Quick
      test_capacity_wraparound_order;
    Alcotest.test_case "capacity boundaries" `Quick test_capacity_boundaries;
    Alcotest.test_case "recorded and dropped accounting" `Quick
      test_recorded_and_dropped;
    Alcotest.test_case "time_of variants" `Quick test_time_of_variants;
    Alcotest.test_case "streaming retains nothing" `Quick
      test_streaming_retains_nothing;
    Alcotest.test_case "streaming sink refusals counted" `Quick
      test_streaming_sink_refusals_counted;
    Alcotest.test_case "streaming keep fills ring" `Quick
      test_streaming_keep_also_fills_ring;
  ]
