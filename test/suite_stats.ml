(* Tests for Sim.Stats. *)

let check_float = Alcotest.(check (float 1e-6))
let check_bool = Alcotest.(check bool)

let test_mean () =
  check_float "mean" 2.5 (Sim.Stats.mean [ 1.0; 2.0; 3.0; 4.0 ])

let test_mean_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.mean: empty list")
    (fun () -> ignore (Sim.Stats.mean []))

let test_stddev () =
  (* sample sd of 2,4,4,4,5,5,7,9 is ~2.138 *)
  let sd = Sim.Stats.stddev [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ] in
  check_bool "sd close" true (Float.abs (sd -. 2.13809) < 1e-4)

let test_stddev_singleton () =
  check_float "single sample" 0.0 (Sim.Stats.stddev [ 5.0 ])

let test_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  check_float "p50" 50.0 (Sim.Stats.percentile 50.0 xs);
  check_float "p90" 90.0 (Sim.Stats.percentile 90.0 xs);
  check_float "p100" 100.0 (Sim.Stats.percentile 100.0 xs);
  check_float "p0 -> min" 1.0 (Sim.Stats.percentile 0.0 xs)

let test_summarize () =
  let s = Sim.Stats.summarize [ 3.0; 1.0; 2.0 ] in
  Alcotest.(check int) "count" 3 s.Sim.Stats.count;
  check_float "min" 1.0 s.min;
  check_float "max" 3.0 s.max;
  check_float "mean" 2.0 s.mean;
  check_float "median" 2.0 s.median

let test_log2 () =
  check_float "log2 8" 3.0 (Sim.Stats.log2 8.0);
  check_float "log2 1" 0.0 (Sim.Stats.log2 1.0)

let qcheck_percentile_bounds =
  QCheck.Test.make ~name:"percentile stays within min..max" ~count:300
    QCheck.(pair (float_bound_inclusive 100.0) (list_of_size Gen.(1 -- 40) (float_bound_inclusive 1000.0)))
    (fun (q, xs) ->
      let p = Sim.Stats.percentile q xs in
      let lo = List.fold_left Float.min infinity xs in
      let hi = List.fold_left Float.max neg_infinity xs in
      p >= lo && p <= hi)

let suite =
  [
    Alcotest.test_case "mean" `Quick test_mean;
    Alcotest.test_case "mean empty" `Quick test_mean_empty;
    Alcotest.test_case "stddev" `Quick test_stddev;
    Alcotest.test_case "stddev singleton" `Quick test_stddev_singleton;
    Alcotest.test_case "percentile" `Quick test_percentile;
    Alcotest.test_case "summarize" `Quick test_summarize;
    Alcotest.test_case "log2" `Quick test_log2;
    QCheck_alcotest.to_alcotest qcheck_percentile_bounds;
  ]
