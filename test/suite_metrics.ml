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

let test_snapshot_independent () =
  let m = M.create ~n:2 in
  M.record_hop m;
  let snap = M.snapshot m in
  M.record_hop m;
  M.record_syscall m ~node:0 ~label:"x";
  check_int "snapshot frozen hops" 1 (M.hops snap);
  check_int "snapshot frozen syscalls" 0 (M.syscalls snap);
  check_int "live advanced" 2 (M.hops m)

let test_diff () =
  let m = M.create ~n:2 in
  M.record_syscall m ~node:0 ~label:"x";
  M.record_hop m;
  let before = M.snapshot m in
  M.record_syscall m ~node:1 ~label:"x";
  M.record_syscall m ~node:1 ~label:"y";
  M.record_hop m;
  M.record_hop m;
  let d = M.diff (M.snapshot m) before in
  check_int "hops delta" 2 (M.hops d);
  check_int "syscalls delta" 2 (M.syscalls d);
  check_int "per-node delta" 2 (M.syscalls_at d 1);
  check_int "label x delta" 1 (M.syscalls_labelled d "x");
  check_int "label y delta" 1 (M.syscalls_labelled d "y")

let test_diff_max_header_honest () =
  let m = M.create ~n:2 in
  M.record_send m ~header_len:9;
  let before = M.snapshot m in
  (* interval sets no new maximum: an honest diff reports 0, not 9 *)
  M.record_send m ~header_len:4;
  let quiet = M.diff (M.snapshot m) before in
  check_int "no new maximum -> 0" 0 (M.max_header quiet);
  (* interval grows the maximum: the diff witnessed exactly that value *)
  M.record_send m ~header_len:12;
  let grew = M.diff (M.snapshot m) before in
  check_int "new maximum reported" 12 (M.max_header grew);
  (* an empty interval must not inherit the pre-existing maximum *)
  let s = M.snapshot m in
  check_int "empty interval -> 0" 0 (M.max_header (M.diff (M.snapshot m) s))

let render pp_call =
  let buf = Buffer.create 64 in
  let ppf = Format.formatter_of_buffer buf in
  pp_call ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
  in
  go 0

let test_pp_breakdowns () =
  let m = M.create ~n:3 in
  M.record_syscall m ~node:1 ~label:"beta";
  M.record_syscall m ~node:1 ~label:"alpha";
  M.record_syscall m ~node:2 ~label:"alpha";
  let plain = render (fun ppf -> M.pp ppf m) in
  Alcotest.(check bool) "plain has totals" true (contains plain "syscalls=3");
  Alcotest.(check bool) "plain has no labels" false (contains plain "alpha");
  let labelled = render (fun ppf -> M.pp ~by_label:true ppf m) in
  Alcotest.(check bool) "labels shown" true
    (contains labelled "alpha=2" && contains labelled "beta=1");
  Alcotest.(check bool) "labels sorted" true
    (let index_of needle =
       let nn = String.length needle in
       let rec go i =
         if i + nn > String.length labelled then -1
         else if String.sub labelled i nn = needle then i
         else go (i + 1)
       in
       go 0
     in
     index_of "alpha=" < index_of "beta=");
  let nodes = render (fun ppf -> M.pp ~per_node:true ppf m) in
  Alcotest.(check bool) "nonzero nodes shown" true
    (contains nodes "node1=2" && contains nodes "node2=1");
  Alcotest.(check bool) "zero nodes omitted" false (contains nodes "node0=")

(* Byte-exact pin of the full breakdown: the rendering feeds `--json` /
   text reports that are diffed across runs, so label order (sorted)
   and node order (ascending index) must stay deterministic. *)
let test_pp_golden () =
  let m = M.create ~n:4 in
  M.record_hop m;
  M.record_syscall m ~node:3 ~label:"beta";
  M.record_syscall m ~node:1 ~label:"alpha";
  M.record_syscall m ~node:3 ~label:"alpha";
  M.record_send m ~header_len:5;
  let out =
    (* an hbox renders every break hint as a space, making the pin
       independent of the formatter's margin *)
    render (fun ppf ->
        Format.fprintf ppf "@[<h>%a@]" (M.pp ~by_label:true ~per_node:true) m)
  in
  Alcotest.(check string) "pinned output"
    "hops=1 syscalls=3 sends=1 drops=0 max_header=5 alpha=2 beta=1 node1=1 \
     node3=2"
    out

let test_diff_size_mismatch () =
  Alcotest.(check bool) "raises" true
    (try ignore (M.diff (M.create ~n:2) (M.create ~n:3)); false
     with Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "fresh" `Quick test_fresh;
    Alcotest.test_case "counters" `Quick test_counters;
    Alcotest.test_case "snapshot independent" `Quick test_snapshot_independent;
    Alcotest.test_case "diff" `Quick test_diff;
    Alcotest.test_case "diff max_header honest" `Quick
      test_diff_max_header_honest;
    Alcotest.test_case "pp breakdowns" `Quick test_pp_breakdowns;
    Alcotest.test_case "pp golden" `Quick test_pp_golden;
    Alcotest.test_case "diff size mismatch" `Quick test_diff_size_mismatch;
  ]
