(* Tests for Hardware.Cost_model. *)

module CM = Hardware.Cost_model

let check_float = Alcotest.(check (float 1e-9))
let check_bool = Alcotest.(check bool)

let test_deterministic () =
  let m = CM.deterministic ~c:2.0 ~p:5.0 in
  check_float "c" 2.0 m.CM.c;
  check_float "p" 5.0 m.CM.p;
  for _ = 1 to 10 do
    check_float "hop exact" 2.0 (m.CM.hop_delay ());
    check_float "sys exact" 5.0 (m.CM.sys_delay ())
  done

let test_negative_rejected () =
  check_bool "raises" true
    (try ignore (CM.deterministic ~c:(-1.0) ~p:0.0); false
     with Invalid_argument _ -> true)

let test_new_model () =
  let m = CM.new_model () in
  check_float "C=0" 0.0 m.CM.c;
  check_float "P=1" 1.0 m.CM.p

let test_traditional () =
  let m = CM.traditional () in
  check_float "C=1" 1.0 m.CM.c;
  check_float "P=0" 0.0 m.CM.p

let test_uniform_random_bounds () =
  let rng = Sim.Rng.create ~seed:99 in
  let m = CM.uniform_random rng ~c:3.0 ~p:0.5 in
  for _ = 1 to 1000 do
    let h = m.CM.hop_delay () and s = m.CM.sys_delay () in
    check_bool "hop in (0,c]" true (h > 0.0 && h <= 3.0);
    check_bool "sys in (0,p]" true (s > 0.0 && s <= 0.5)
  done

let test_uniform_random_zero_bound () =
  let rng = Sim.Rng.create ~seed:99 in
  let m = CM.uniform_random rng ~c:0.0 ~p:1.0 in
  check_float "zero stays zero" 0.0 (m.CM.hop_delay ())

let suite =
  [
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "negative rejected" `Quick test_negative_rejected;
    Alcotest.test_case "new model C=0 P=1" `Quick test_new_model;
    Alcotest.test_case "traditional C=1 P=0" `Quick test_traditional;
    Alcotest.test_case "uniform bounds" `Quick test_uniform_random_bounds;
    Alcotest.test_case "uniform zero bound" `Quick test_uniform_random_zero_bound;
  ]
