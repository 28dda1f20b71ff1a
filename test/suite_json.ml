(* Sim.Json, the one JSON reader/writer, and Sim.Trace_import's
   flat-object check on top of it: both return Ok or Error on any
   input and never raise, and the writer's escaping round-trips every
   byte string. *)

module J = Sim.Json
module T = Sim.Trace
module TE = Sim.Trace_export
module TI = Sim.Trace_import

let check_bool = Alcotest.(check bool)

let rejected s = match J.parse s with Error _ -> true | Ok _ -> false

let test_values () =
  check_bool "object" true
    (J.parse {| {"a": [1, -2.5e3, true, null], "b": {"c": "d"}} |}
    = Ok
        (J.Obj
           [
             ("a", J.Arr [ J.Num 1.0; J.Num (-2500.0); J.Bool true; J.Null ]);
             ("b", J.Obj [ ("c", J.Str "d") ]);
           ]));
  check_bool "trailing garbage" true (rejected {|{"a":1} x|});
  check_bool "unterminated" true (rejected {|{"a":"b|});
  check_bool "bad literal" true (rejected "tru");
  check_bool "empty" true (rejected "");
  check_bool "deep nesting refused" true (rejected (String.make 100_000 '['))

let test_unicode_escapes () =
  check_bool "ascii" true (J.parse {|"A"|} = Ok (J.Str "A"));
  check_bool "two-byte UTF-8" true
    (J.parse {|"\u00e9"|} = Ok (J.Str "\xc3\xa9"));
  check_bool "three-byte UTF-8" true
    (J.parse {|"\u20ac"|} = Ok (J.Str "\xe2\x82\xac"));
  check_bool "bad hex" true (rejected {|"\u00zz"|});
  check_bool "truncated" true (rejected {|"\u00"|})

let test_render_round_trips () =
  let v =
    J.Obj
      [
        ("name", J.Str "e1/x\t\"y\"");
        ("n", J.Num 64.0);
        ("mean", J.Num 1.29921259843);
        ("list", J.Arr [ J.Bool false; J.Null ]);
      ]
  in
  check_bool "render then parse" true (J.parse (J.render v) = Ok v);
  check_bool "compact" true
    (J.render (J.Obj [ ("a", J.Num 1.0) ]) = {|{"a":1}|})

let test_flat_records () =
  check_bool "flat object" true
    (TI.parse_record {|{"type":"x","a":1,"b":"s","c":null,"d":false}|}
    = Ok
        [
          ("type", J.Str "x");
          ("a", J.Num 1.0);
          ("b", J.Str "s");
          ("c", J.Null);
          ("d", J.Bool false);
        ]);
  let refused s = Result.is_error (TI.parse_record s) in
  check_bool "nested array" true (refused {|{"type":"x","a":[1]}|});
  check_bool "nested object" true (refused {|{"type":"x","a":{}}|});
  check_bool "not an object" true (refused "[1,2]");
  check_bool "trailing garbage" true (refused {|{"type":"x"}}|});
  check_bool "unicode label decoded" true
    (TI.parse_line {|{"type":"custom","time":1,"label":"\u00e9"}|}
    = Ok (TI.Event (T.Custom { time = 1.0; label = "\xc3\xa9" })))

(* -- properties --------------------------------------------------------- *)

let valid_lines =
  TE.stream_header ~fields:[ ("n", "16") ] ()
  :: List.map TE.jsonl_of_event
       [
         T.Hop { src = 3; dst = 7; time = 1.5; msg_id = 42 };
         T.Send { node = 2; time = 2.0; msg_id = 9; label = "bpaths" };
         T.Link_change { u = 2; v = 6; up = false; time = 5.0 };
         T.Custom { time = 6.0; label = "phase \"two\"\n\\ done" };
       ]

let total f s =
  match f s with Ok _ | Error _ -> true | exception _ -> false

let both_total s =
  total J.parse s && total TI.parse_line s && total TI.parse_record s

let qcheck_arbitrary_bytes =
  QCheck.Test.make ~name:"parsers are total on arbitrary bytes" ~count:2000
    QCheck.(string_gen Gen.char)
    both_total

(* one to three byte edits (replace, insert or delete at a random
   position) to a line the writers emit *)
let mutated_line =
  let open QCheck.Gen in
  let edit line =
    let n = String.length line in
    let* pos = int_bound (max 0 (n - 1)) in
    let* c = char in
    let* kind = int_bound 2 in
    return
      (if n = 0 then String.make 1 c
       else
         match kind with
         | 0 -> String.mapi (fun i x -> if i = pos then c else x) line
         | 1 -> String.sub line 0 pos ^ String.make 1 c ^ String.sub line pos (n - pos)
         | _ -> String.sub line 0 pos ^ String.sub line (pos + 1) (n - pos - 1))
  in
  let* line = oneofl valid_lines in
  let* edits = int_range 1 3 in
  let rec go k line = if k = 0 then return line else edit line >>= go (k - 1) in
  go edits line

let qcheck_mutated_lines =
  QCheck.Test.make ~name:"parsers are total on mutated valid lines" ~count:2000
    (QCheck.make ~print:String.escaped mutated_line)
    both_total

let qcheck_escape_round_trip =
  QCheck.Test.make ~name:"parse (quote (escape s)) = Str s" ~count:2000
    QCheck.(string_gen Gen.char)
    (fun s -> J.parse ("\"" ^ J.escape s ^ "\"") = Ok (J.Str s))

let suite =
  [
    Alcotest.test_case "values and errors" `Quick test_values;
    Alcotest.test_case "unicode escapes decode to UTF-8" `Quick
      test_unicode_escapes;
    Alcotest.test_case "render round-trips" `Quick test_render_round_trips;
    Alcotest.test_case "trace import flat records" `Quick test_flat_records;
    QCheck_alcotest.to_alcotest qcheck_arbitrary_bytes;
    QCheck_alcotest.to_alcotest qcheck_mutated_lines;
    QCheck_alcotest.to_alcotest qcheck_escape_round_trip;
  ]
