(* Tests for Hardware.Metrics. *)

module M = Hardware.Metrics

let check_int = Alcotest.(check int)

let test_fresh () =
  let m = M.create ~n:4 in
  check_int "hops" 0 (M.hops m);
  check_int "syscalls" 0 (M.syscalls m);
  check_int "sends" 0 (M.sends m);
  check_int "drops" 0 (M.drops m);
  check_int "n" 4 (M.n m)

let test_counters () =
  let m = M.create ~n:3 in
  M.record_hop m;
  M.record_hop m;
  M.record_syscall m ~node:1 ~label:"a";
  M.record_syscall m ~node:1 ~label:"b";
  M.record_syscall m ~node:2 ~label:"a";
  M.record_send m ~header_len:5;
  M.record_send m ~header_len:3;
  M.record_drop m;
  check_int "hops" 2 (M.hops m);
  check_int "syscalls" 3 (M.syscalls m);
  check_int "per-node 1" 2 (M.syscalls_at m 1);
  check_int "per-node 0" 0 (M.syscalls_at m 0);
  check_int "label a" 2 (M.syscalls_labelled m "a");
  check_int "label missing" 0 (M.syscalls_labelled m "zzz");
  check_int "sends" 2 (M.sends m);
  check_int "max header" 5 (M.max_header m);
  check_int "drops" 1 (M.drops m);
  (* a label counts by content, whether or not it is the same string
     as the previous call's *)
  M.record_syscall m ~node:0 ~label:(String.make 1 'a');
  M.record_syscall m ~node:0 ~label:"b";
  M.record_syscall m ~node:0 ~label:"b";
  check_int "label a, copied string" 3 (M.syscalls_labelled m "a");
  check_int "label b, repeated" 3 (M.syscalls_labelled m "b")

let suite =
  [
    Alcotest.test_case "fresh" `Quick test_fresh;
    Alcotest.test_case "counters" `Quick test_counters;
  ]
