(* Tests for Sim.Engine: clock, ordering, FIFO ties, horizons, and the
   event queue behind them. *)

let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))
let check_bool = Alcotest.(check bool)

let test_initial_state () =
  let e = Sim.Engine.create () in
  check_float "clock 0" 0.0 (Sim.Engine.now e);
  check_int "no events" 0 (Sim.Engine.pending e)

let test_time_ordering () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.schedule e ~delay:3.0 (fun () -> log := 3 :: !log);
  Sim.Engine.schedule e ~delay:1.0 (fun () -> log := 1 :: !log);
  Sim.Engine.schedule e ~delay:2.0 (fun () -> log := 2 :: !log);
  Alcotest.(check bool) "quiescent" true (Sim.Engine.run e = Sim.Engine.Quiescent);
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log)

let test_fifo_same_time () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  for i = 0 to 9 do
    Sim.Engine.schedule e ~delay:1.0 (fun () -> log := i :: !log)
  done;
  ignore (Sim.Engine.run e);
  Alcotest.(check (list int)) "scheduling order" (List.init 10 Fun.id) (List.rev !log)

let test_clock_advances () =
  let e = Sim.Engine.create () in
  let seen = ref [] in
  Sim.Engine.schedule e ~delay:2.5 (fun () -> seen := Sim.Engine.now e :: !seen);
  Sim.Engine.schedule e ~delay:1.5 (fun () -> seen := Sim.Engine.now e :: !seen);
  ignore (Sim.Engine.run e);
  Alcotest.(check (list (float 1e-9))) "timestamps" [ 1.5; 2.5 ] (List.rev !seen)

let test_nested_scheduling () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.schedule e ~delay:1.0 (fun () ->
      log := "outer" :: !log;
      Sim.Engine.schedule e ~delay:1.0 (fun () -> log := "inner" :: !log));
  ignore (Sim.Engine.run e);
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log);
  check_float "final clock" 2.0 (Sim.Engine.now e)

let test_zero_delay_chain () =
  let e = Sim.Engine.create () in
  let count = ref 0 in
  let rec step () =
    incr count;
    if !count < 100 then Sim.Engine.schedule e ~delay:0.0 step
  in
  Sim.Engine.schedule e ~delay:0.0 step;
  ignore (Sim.Engine.run e);
  check_int "100 chained zero-delay events" 100 !count;
  check_float "clock still 0" 0.0 (Sim.Engine.now e)

let test_until_horizon () =
  let e = Sim.Engine.create () in
  let fired = ref [] in
  List.iter
    (fun d -> Sim.Engine.schedule e ~delay:d (fun () -> fired := d :: !fired))
    [ 1.0; 2.0; 3.0; 4.0 ];
  let outcome = Sim.Engine.run ~until:2.5 e in
  check_bool "time limited" true (outcome = Sim.Engine.Time_limit);
  Alcotest.(check (list (float 1e-9))) "fired before horizon" [ 1.0; 2.0 ] (List.rev !fired);
  check_float "clock at horizon" 2.5 (Sim.Engine.now e);
  check_int "pending remain" 2 (Sim.Engine.pending e);
  (* resume *)
  check_bool "drains" true (Sim.Engine.run e = Sim.Engine.Quiescent);
  check_int "all fired" 4 (List.length !fired)

let test_event_budget () =
  let e = Sim.Engine.create () in
  for i = 0 to 9 do
    Sim.Engine.schedule e ~delay:(float_of_int i) (fun () -> ())
  done;
  check_bool "budget hit" true (Sim.Engine.run ~max_events:4 e = Sim.Engine.Event_limit);
  check_int "6 left" 6 (Sim.Engine.pending e)

let test_past_scheduling_rejected () =
  let e = Sim.Engine.create () in
  Sim.Engine.schedule e ~delay:5.0 (fun () ->
      Alcotest.check_raises "past time"
        (Invalid_argument "Engine.schedule_at: time 1 is before now 5")
        (fun () -> Sim.Engine.schedule_at e ~time:1.0 (fun () -> ())));
  ignore (Sim.Engine.run e)

let test_negative_delay_rejected () =
  let e = Sim.Engine.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      Sim.Engine.schedule e ~delay:(-1.0) (fun () -> ()))

let test_step () =
  let e = Sim.Engine.create () in
  let n = ref 0 in
  Sim.Engine.schedule e ~delay:1.0 (fun () -> incr n);
  check_bool "step true" true (Sim.Engine.step e);
  check_int "ran" 1 !n;
  check_bool "step false when empty" false (Sim.Engine.step e)

let test_events_processed () =
  let e = Sim.Engine.create () in
  for _ = 1 to 5 do
    Sim.Engine.schedule e ~delay:1.0 (fun () -> ())
  done;
  ignore (Sim.Engine.run e);
  check_int "count" 5 (Sim.Engine.events_processed e)

(* Satellite fix: an empty queue must report Quiescent even when the
   event budget is exhausted — the budget only limits work actually
   done, it must not mask completion. *)
let test_empty_queue_beats_budget () =
  let e = Sim.Engine.create () in
  for _ = 1 to 3 do
    Sim.Engine.schedule e ~delay:1.0 (fun () -> ())
  done;
  Alcotest.(check bool) "drained under exact budget" true
    (Sim.Engine.run ~max_events:3 e = Sim.Engine.Quiescent);
  Alcotest.(check bool) "empty + zero budget is quiescent" true
    (Sim.Engine.run ~max_events:0 e = Sim.Engine.Quiescent)

let test_reset_reuses_engine () =
  let e = Sim.Engine.create ~queue_capacity:8 () in
  Sim.Engine.schedule e ~delay:2.0 (fun () -> ());
  Sim.Engine.schedule e ~delay:5.0 (fun () -> ());
  ignore (Sim.Engine.run e);
  check_float "clock advanced" 5.0 (Sim.Engine.now e);
  Sim.Engine.reset e;
  check_float "clock back to 0" 0.0 (Sim.Engine.now e);
  check_int "no pending" 0 (Sim.Engine.pending e);
  check_int "counter back to 0" 0 (Sim.Engine.events_processed e);
  (* a second run behaves exactly like a fresh engine *)
  let log = ref [] in
  Sim.Engine.schedule e ~delay:1.0 (fun () -> log := 1 :: !log);
  Sim.Engine.schedule e ~delay:1.0 (fun () -> log := 2 :: !log);
  Alcotest.(check bool) "second run quiescent" true
    (Sim.Engine.run e = Sim.Engine.Quiescent);
  Alcotest.(check (list int)) "FIFO fresh after reset" [ 1; 2 ] (List.rev !log)

let test_reset_mid_flight_pending_dropped () =
  let e = Sim.Engine.create () in
  Sim.Engine.schedule e ~delay:1.0 (fun () -> ());
  Sim.Engine.schedule e ~delay:9.0 (fun () -> ());
  ignore (Sim.Engine.run ~max_events:1 e);
  Sim.Engine.reset e;
  Alcotest.(check bool) "pending dropped, quiescent" true
    (Sim.Engine.run e = Sim.Engine.Quiescent);
  check_int "nothing executed" 0 (Sim.Engine.events_processed e)

(* NaN compares false both ways, so [delay < 0.] and [time < now]
   both let it through; the engine must refuse it. *)
let test_nan_rejected () =
  let e = Sim.Engine.create () in
  Alcotest.check_raises "NaN delay" (Invalid_argument "Engine.schedule: delay is NaN")
    (fun () -> Sim.Engine.schedule e ~delay:Float.nan (fun () -> ()));
  Alcotest.check_raises "NaN time"
    (Invalid_argument "Engine.schedule_at: time is NaN") (fun () ->
      Sim.Engine.schedule_at e ~time:Float.nan (fun () -> ()));
  check_int "nothing queued" 0 (Sim.Engine.pending e);
  (* the queue still works and orders as before *)
  let log = ref [] in
  Sim.Engine.schedule e ~delay:1.0 (fun () -> log := 1 :: !log);
  Sim.Engine.schedule e ~delay:0.5 (fun () -> log := 0 :: !log);
  ignore (Sim.Engine.run e);
  Alcotest.(check (list int)) "time order" [ 0; 1 ] (List.rev !log)

(* -- the event queue ---------------------------------------------------- *)

(* Schedule one event per [(time, name)] and return the names in firing
   order. *)
let fire_order ?queue_capacity events =
  let e = Sim.Engine.create ?queue_capacity () in
  let log = ref [] in
  List.iter
    (fun (time, name) -> Sim.Engine.schedule_at e ~time (fun () -> log := name :: !log))
    events;
  ignore (Sim.Engine.run e);
  List.rev !log

let test_queue_sorted_pop () =
  let times = [ 5; 3; 9; 1; 7; 2; 8; 4; 6; 0 ] in
  Alcotest.(check (list int)) "sorted" (List.init 10 Fun.id)
    (fire_order (List.map (fun t -> (float_of_int t, t)) times))

let test_queue_fifo_tie_break () =
  (* time 0: a c e; time 1: b d f — insertion order within a time *)
  Alcotest.(check (list string)) "insertion order within a time"
    [ "a"; "c"; "e"; "b"; "d"; "f" ]
    (fire_order
       (List.mapi (fun i name -> (float_of_int (i mod 2), name))
          [ "a"; "b"; "c"; "d"; "e"; "f" ]))

let test_queue_growth () =
  let events = List.init 1000 (fun i -> (float_of_int (999 - i), 999 - i)) in
  Alcotest.(check (list int)) "1000 events in time order" (List.init 1000 Fun.id)
    (fire_order events)

let test_queue_capacity_hint () =
  let events = List.init 1000 (fun i -> (float_of_int (i mod 7), i)) in
  Alcotest.(check (list int)) "hint changes nothing"
    (fire_order events) (fire_order ~queue_capacity:1000 events);
  Alcotest.check_raises "negative capacity rejected"
    (Invalid_argument "Engine.create: negative queue_capacity") (fun () ->
      ignore (Sim.Engine.create ~queue_capacity:(-1) ()))

(* Random interleavings of schedule / step / run ~until / run
   ~max_events / reset, with times drawn from a handful of values so ties
   abound, against a model that fires the earliest pending event,
   first-scheduled first: the stable sort on time of what is pending.
   A fired event schedules its children from inside its closure, mostly
   at delay 0, so that zero-delay pushes happen while same-time events
   from earlier instants are still queued; [Run] stops after a random
   number of events, often in the middle of a same-time batch; [Until]
   offsets may fall below the clock, which moves the clock back.
   Delays and offsets mix whole numbers and halves, so the clock is
   sometimes fractional and an event takes the now-lane, a calendar
   lane or the heap; delays of 4 and more start outside the calendar's
   window, and later pushes for the same instant land inside it. *)
type spawn = Spawn of float * spawn list  (* delay, then the children it schedules *)

type op = Push of spawn | Pop | Run of int | Until of float | Reset

(* 4 is the calendar's window edge, so it is drawn twice as often. *)
let delay_gen =
  QCheck.Gen.oneofl [ 0.0; 0.5; 1.0; 1.5; 2.0; 3.0; 3.5; 4.0; 4.0; 5.0; 6.5; 8.0 ]

let spawn_gen =
  let kid_delay = QCheck.Gen.(frequency [ (3, return 0.0); (2, delay_gen) ]) in
  QCheck.Gen.(
    sized_size (int_bound 3)
    @@ fix (fun self depth ->
           let kids = if depth = 0 then return [] else list_size (int_bound 2) (self (depth - 1)) in
           map2 (fun d k -> Spawn (d, k)) kid_delay kids))

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun d -> Push (Spawn (d, []))) delay_gen);
        (3, map (fun s -> Push s) spawn_gen);
        (3, return Pop);
        (1, map (fun k -> Run k) (int_bound 6));
        (1, map (fun d -> Until d) (oneofl [ -3.0; -1.5; -0.5; 0.5; 1.0; 2.5; 4.0; 5.0 ]));
        (1, return Reset);
      ])

let rec show_spawn (Spawn (d, kids)) =
  if kids = [] then Printf.sprintf "%g" d
  else Printf.sprintf "%g(%s)" d (String.concat "," (List.map show_spawn kids))

let show_op = function
  | Push s -> "push+" ^ show_spawn s
  | Pop -> "pop"
  | Run k -> Printf.sprintf "run%d" k
  | Until d -> Printf.sprintf "until%+g" d
  | Reset -> "reset"

let qcheck_queue_interleavings =
  QCheck.Test.make ~name:"queue interleavings fire in stable time order" ~count:500
    (QCheck.make ~print:(QCheck.Print.list show_op) QCheck.Gen.(list_size (int_bound 80) op_gen))
    (fun ops ->
      let e = Sim.Engine.create ~queue_capacity:2 () in
      let fired = ref [] in
      (* An event's id is its path: the op index, then the child index at
         each level, so both sides name an event the same way whatever
         order they fire in. *)
      let rec schedule id (Spawn (d, kids)) =
        Sim.Engine.schedule e ~delay:d (fun () ->
            fired := id :: !fired;
            List.iteri (fun i k -> schedule (i :: id) k) kids)
      in
      (* the model: pending (time, id, children) in scheduling order, and a clock *)
      let pending = ref [] and clock = ref 0.0 and expected = ref [] in
      let model_push id (Spawn (d, kids)) =
        pending := !pending @ [ (!clock +. d, id, kids) ]
      in
      let model_pop () =
        match List.stable_sort (fun (a, _, _) (b, _, _) -> Float.compare a b) !pending with
        | [] -> false
        | ((t, id, kids) as first) :: _ ->
            pending := List.filter (fun x -> x != first) !pending;
            clock := t;
            expected := id :: !expected;
            List.iteri (fun i k -> model_push (i :: id) k) kids;
            true
      in
      List.iteri
        (fun id op ->
          match op with
          | Push s ->
              schedule [ id ] s;
              model_push [ id ] s
          | Pop ->
              ignore (Sim.Engine.step e);
              ignore (model_pop ())
          | Run k ->
              ignore (Sim.Engine.run ~max_events:k e);
              for _ = 1 to k do
                ignore (model_pop ())
              done
          | Until d ->
              let until = !clock +. d in
              ignore (Sim.Engine.run ~until e);
              let rec drain () =
                match !pending with
                | [] -> ()
                | _ ->
                    if List.exists (fun (t, _, _) -> t <= until) !pending then begin
                      ignore (model_pop ());
                      drain ()
                    end
                    else clock := until
              in
              drain ()
          | Reset ->
              Sim.Engine.reset e;
              pending := [];
              clock := 0.0)
        ops;
      !fired = !expected
      && Sim.Engine.pending e = List.length !pending
      && Sim.Engine.now e = !clock)

(* A closure the queue has fired, or dropped on [reset], must not stay
   reachable from it: whatever the closure captures would otherwise
   live as long as the engine. *)
let[@inline never] schedule_watched e w slot ~delay =
  let cell = ref 0 in
  let f () = incr cell in
  Weak.set w slot (Some f);
  Sim.Engine.schedule e ~delay f

(* Schedule a watched closure at [delay], drop it with [reset] or fire
   it with [run], and check that a full collection frees it. *)
let check_released e ~setup ~delay ~fire what =
  let w = Weak.create 1 in
  setup ();
  schedule_watched e w 0 ~delay;
  if fire then ignore (Sim.Engine.run e) else Sim.Engine.reset e;
  Gc.full_major ();
  check_bool what false (Weak.check w 0)

let test_queue_releases_closures () =
  let e = Sim.Engine.create () in
  let at_zero () = Sim.Engine.reset e in
  (* a fractional clock, so a zero-delay event takes the now-lane *)
  let at_half () =
    Sim.Engine.reset e;
    ignore (Sim.Engine.run ~until:0.5 e)
  in
  List.iter
    (fun (setup, delay, where) ->
      List.iter
        (fun fire ->
          check_released e ~setup ~delay ~fire
            (Printf.sprintf "%s closure %s collected" where
               (if fire then "fired" else "reset-dropped")))
        [ true; false ])
    [
      (at_zero, 5.0, "heap");
      (at_zero, 1.0, "calendar-lane");
      (at_zero, 0.0, "zero-delay calendar-lane");
      (at_half, 0.0, "now-lane");
    ];
  (* the engine must outlive the collections above, or they prove nothing *)
  check_int "engine still reachable" 0 (Sim.Engine.pending e)

(* Log the names of fired events, in firing order, with their times. *)
let logger e =
  let log = ref [] in
  let ev name () = log := (name, Sim.Engine.now e) :: !log in
  (log, ev)

let check_log what expected log =
  Alcotest.(check (list (pair string (float 0.0)))) what expected (List.rev !log)

(* An event at a whole-number time [T] scheduled while [T] is outside
   the calendar's window goes to the heap; one scheduled for [T] once
   the clock is near goes to [T]'s lane.  The heap entries were
   scheduled first, so they fire first. *)
let test_heap_before_lane_at_same_time () =
  let e = Sim.Engine.create () in
  let log, ev = logger e in
  Sim.Engine.schedule_at e ~time:5.0 (ev "heap1");
  Sim.Engine.schedule_at e ~time:2.0 (fun () ->
      Sim.Engine.schedule_at e ~time:5.0 (ev "lane1");
      Sim.Engine.schedule e ~delay:3.0 (ev "lane2"));
  Sim.Engine.schedule_at e ~time:5.0 (ev "heap2");
  ignore (Sim.Engine.run e);
  check_log "heap entries first, then the lane"
    [ ("heap1", 5.0); ("heap2", 5.0); ("lane1", 5.0); ("lane2", 5.0) ]
    log

(* A horizon below the clock moves it back while the now-lane and the
   calendar lanes hold events; they join the heap in order, and events
   scheduled after the move fall in behind them at equal times. *)
let test_backward_until_keeps_order () =
  let e = Sim.Engine.create () in
  let log, ev = logger e in
  Sim.Engine.schedule_at e ~time:1.5 (fun () ->
      ev "x" ();
      Sim.Engine.schedule e ~delay:0.0 (ev "y");
      Sim.Engine.schedule e ~delay:0.5 (ev "z"));
  Sim.Engine.schedule_at e ~time:2.0 (ev "b");
  Sim.Engine.schedule_at e ~time:3.0 (ev "d");
  check_bool "stopped after x" true
    (Sim.Engine.run ~max_events:1 e = Sim.Engine.Event_limit);
  check_bool "horizon below the clock" true
    (Sim.Engine.run ~until:1.0 e = Sim.Engine.Time_limit);
  check_float "clock moved back" 1.0 (Sim.Engine.now e);
  check_int "nothing lost" 4 (Sim.Engine.pending e);
  Sim.Engine.schedule_at e ~time:1.5 (ev "w");
  Sim.Engine.schedule_at e ~time:2.0 (ev "e");
  Sim.Engine.schedule_at e ~time:5.0 (ev "g");
  Sim.Engine.schedule_at e ~time:1.0 (ev "h");
  ignore (Sim.Engine.run e);
  check_log "(time, seq) order"
    [
      ("x", 1.5); ("h", 1.0); ("y", 1.5); ("w", 1.5); ("b", 2.0); ("z", 2.0);
      ("e", 2.0); ("d", 3.0); ("g", 5.0);
    ]
    log

(* A retired engine comes back from [create] with every lane empty:
   nothing it held fires, and it orders new events like a fresh one. *)
let test_retire_then_create_lanes_empty () =
  let hint = 37 in
  let e = Sim.Engine.create ~queue_capacity:hint () in
  let log, ev = logger e in
  ignore (Sim.Engine.run ~until:0.5 e);
  Sim.Engine.schedule e ~delay:0.0 (ev "now-lane");
  Sim.Engine.schedule e ~delay:1.5 (ev "calendar");
  Sim.Engine.schedule e ~delay:9.0 (ev "heap");
  Sim.Engine.retire e;
  let e' = Sim.Engine.create ~queue_capacity:hint () in
  check_bool "the spare is reused" true (e == e');
  check_int "no pending" 0 (Sim.Engine.pending e');
  check_float "clock at 0" 0.0 (Sim.Engine.now e');
  check_bool "quiescent" true (Sim.Engine.run e' = Sim.Engine.Quiescent);
  check_int "nothing ran" 0 (Sim.Engine.events_processed e');
  Sim.Engine.schedule e' ~delay:2.0 (ev "b");
  Sim.Engine.schedule e' ~delay:1.0 (ev "a");
  ignore (Sim.Engine.run e');
  check_log "only the new events, in order" [ ("a", 1.0); ("b", 2.0) ] log

let suite =
  [
    Alcotest.test_case "initial state" `Quick test_initial_state;
    Alcotest.test_case "time ordering" `Quick test_time_ordering;
    Alcotest.test_case "FIFO same time" `Quick test_fifo_same_time;
    Alcotest.test_case "clock advances" `Quick test_clock_advances;
    Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
    Alcotest.test_case "zero-delay chain" `Quick test_zero_delay_chain;
    Alcotest.test_case "until horizon + resume" `Quick test_until_horizon;
    Alcotest.test_case "event budget" `Quick test_event_budget;
    Alcotest.test_case "past scheduling rejected" `Quick test_past_scheduling_rejected;
    Alcotest.test_case "negative delay rejected" `Quick test_negative_delay_rejected;
    Alcotest.test_case "single step" `Quick test_step;
    Alcotest.test_case "events processed" `Quick test_events_processed;
    Alcotest.test_case "empty queue beats budget" `Quick
      test_empty_queue_beats_budget;
    Alcotest.test_case "reset reuses the engine" `Quick test_reset_reuses_engine;
    Alcotest.test_case "reset drops pending" `Quick
      test_reset_mid_flight_pending_dropped;
    Alcotest.test_case "NaN time rejected" `Quick test_nan_rejected;
    Alcotest.test_case "queue sorted pop" `Quick test_queue_sorted_pop;
    Alcotest.test_case "queue FIFO tie-break" `Quick test_queue_fifo_tie_break;
    Alcotest.test_case "queue growth to 1000" `Quick test_queue_growth;
    Alcotest.test_case "queue capacity hint" `Quick test_queue_capacity_hint;
    Alcotest.test_case "queue releases closures" `Quick
      test_queue_releases_closures;
    QCheck_alcotest.to_alcotest qcheck_queue_interleavings;
    Alcotest.test_case "heap before lane at the same time" `Quick
      test_heap_before_lane_at_same_time;
    Alcotest.test_case "backward until keeps order" `Quick
      test_backward_until_keeps_order;
    Alcotest.test_case "retire then create: lanes empty" `Quick
      test_retire_then_create_lanes_empty;
  ]
