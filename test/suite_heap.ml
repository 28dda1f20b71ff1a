(* Tests for the event queue behind Sim.Engine: a FIFO of the events due
   at the current instant and a binary min-heap over (time, seq) of the
   later ones, whose closures sit in a pool beside it.  Both are private
   to the engine and so are driven here through its interface: [pending]
   is their joint length, [step] pops and runs the minimum, [run ~until]
   peeks at it, and [reset] clears both.  The ordering, growth and
   stability cases, and the model that pins how the two parts
   interleave, live in Suite_engine. *)

let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))
let check_bool = Alcotest.(check bool)

let test_empty () =
  let e = Sim.Engine.create () in
  check_int "length" 0 (Sim.Engine.pending e);
  check_bool "pop none" false (Sim.Engine.step e);
  check_bool "run on empty is quiescent" true
    (Sim.Engine.run ~until:1.0 e = Sim.Engine.Quiescent);
  check_float "clock untouched" 0.0 (Sim.Engine.now e)

(* [run ~until] reads the minimum's time and stops before it without
   popping: the horizon check must leave every event pending. *)
let test_peek_does_not_remove () =
  let e = Sim.Engine.create () in
  let fired = ref [] in
  Sim.Engine.schedule e ~delay:2.0 (fun () -> fired := "b" :: !fired);
  Sim.Engine.schedule e ~delay:1.0 (fun () -> fired := "a" :: !fired);
  check_bool "stops before min" true
    (Sim.Engine.run ~until:0.5 e = Sim.Engine.Time_limit);
  check_int "length unchanged" 2 (Sim.Engine.pending e);
  Alcotest.(check (list string)) "nothing fired" [] !fired;
  check_bool "min is next" true (Sim.Engine.step e);
  Alcotest.(check (list string)) "min fired first" [ "a" ] !fired

(* Popping the minimum runs its closure and moves the clock to its
   time; an empty queue pops nothing. *)
let test_min_prio_and_pop_min () =
  let e = Sim.Engine.create () in
  let last = ref 0 in
  List.iter
    (fun p -> Sim.Engine.schedule e ~delay:(float_of_int p) (fun () -> last := 10 * p))
    [ 4; 2; 7 ];
  check_bool "pop_min" true (Sim.Engine.step e);
  check_float "min_prio" 2.0 (Sim.Engine.now e);
  check_int "pop_min value" 20 !last;
  check_bool "pop_min again" true (Sim.Engine.step e);
  check_float "next min_prio" 4.0 (Sim.Engine.now e);
  check_int "pop_min value again" 40 !last;
  check_bool "last pop" true (Sim.Engine.step e);
  check_int "last" 70 !last;
  check_bool "pop_min on empty" false (Sim.Engine.step e);
  check_float "clock stays at last min" 7.0 (Sim.Engine.now e)

let test_clear () =
  let e = Sim.Engine.create () in
  let fired = ref false in
  Sim.Engine.schedule e ~delay:1.0 (fun () -> fired := true);
  Sim.Engine.reset e;
  check_int "empty after clear" 0 (Sim.Engine.pending e);
  check_bool "nothing to pop" false (Sim.Engine.step e);
  check_bool "cleared event never fires" false !fired

(* After a clear, FIFO tie-breaking starts over: the replica-loop reuse
   case must behave exactly like a fresh queue. *)
let test_clear_resets_fifo_seq () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.schedule e ~delay:0.0 (fun () -> log := "stale" :: !log);
  Sim.Engine.reset e;
  Sim.Engine.schedule e ~delay:1.0 (fun () -> log := "a" :: !log);
  Sim.Engine.schedule e ~delay:1.0 (fun () -> log := "b" :: !log);
  ignore (Sim.Engine.run e);
  Alcotest.(check (list string)) "fresh FIFO order" [ "a"; "b" ] (List.rev !log)

let suite =
  [
    Alcotest.test_case "empty heap" `Quick test_empty;
    Alcotest.test_case "peek non-destructive" `Quick test_peek_does_not_remove;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "clear resets FIFO sequence" `Quick
      test_clear_resets_fifo_seq;
    Alcotest.test_case "min_prio and pop_min" `Quick test_min_prio_and_pop_min;
  ]
