(* Sim.Sink: the streaming back end of the trace pipeline.

   The load-bearing promise is byte-identity: a file sink must produce
   the same bytes whatever its chunk size, because the streamed-export
   determinism tests (and CI artifact diffs) compare files produced
   under different buffering regimes. *)

module S = Sim.Sink

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let with_temp_file f =
  let path = Filename.temp_file "sink_test" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let lines =
  [ {|{"type":"header","n":1}|}; {|{"a":1}|}; {|{"b":"two"}|}; {|{"c":3.5}|};
    {|{"d":[4]}|} ]

let feed sink = List.map (fun l -> S.emit sink l) lines

let test_buffer_sink_appends_lines () =
  let buf = Buffer.create 64 in
  let s = S.buffer buf in
  ignore (feed s);
  S.close s;
  check_string "one newline per line"
    (String.concat "" (List.map (fun l -> l ^ "\n") lines))
    (Buffer.contents buf)

let file_bytes ?chunk_bytes () =
  with_temp_file (fun path ->
      let s = S.file ?chunk_bytes path in
      ignore (feed s);
      S.close s;
      read_file path)

let test_file_bytes_identical_at_any_chunk_size () =
  let reference = file_bytes ~chunk_bytes:65536 () in
  check_string "buffer contents are the reference"
    (String.concat "" (List.map (fun l -> l ^ "\n") lines))
    reference;
  List.iter
    (fun chunk_bytes ->
      check_string
        (Printf.sprintf "chunk_bytes=%d" chunk_bytes)
        reference
        (file_bytes ~chunk_bytes ()))
    [ 1; 7; 64; 1024 ]

let test_file_max_bytes_backpressure () =
  with_temp_file (fun path ->
      (* budget fits the first two lines only *)
      let budget =
        String.length (List.nth lines 0) + 1 + String.length (List.nth lines 1)
        + 1
      in
      let s = S.file ~chunk_bytes:4 ~max_bytes:budget path in
      let accepted = feed s in
      S.close s;
      check_bool "first two accepted" true
        (List.nth accepted 0 && List.nth accepted 1);
      check_bool "rest refused" true
        (not (List.nth accepted 2 || List.nth accepted 3 || List.nth accepted 4));
      check_int "dropped counted" 3 (S.dropped s);
      check_int "emitted counted" 2 (S.emitted s);
      let contents = read_file path in
      check_string "file ends on a line boundary"
        (List.nth lines 0 ^ "\n" ^ List.nth lines 1 ^ "\n")
        contents;
      check_int "bytes accessor matches the file" (String.length contents)
        (S.bytes s))

let test_file_max_bytes_smaller_than_one_line () =
  (* a line that does not fit is dropped whole — never written as a
     prefix — while a later, shorter line that does fit still lands *)
  with_temp_file (fun path ->
      let long = {|{"type":"hop","time":1,"src":0,"dst":1,"msg_id":7}|} in
      let short = {|{"a":1}|} in
      let s =
        S.file ~chunk_bytes:4 ~max_bytes:(String.length short + 1) path
      in
      let first = S.emit s long in
      let second = S.emit s short in
      S.close s;
      check_bool "oversized line refused" false first;
      check_bool "fitting line accepted" true second;
      check_int "one drop" 1 (S.dropped s);
      check_int "one emit" 1 (S.emitted s);
      check_string "no partial bytes of the refused line" (short ^ "\n")
        (read_file path))

let test_close_is_idempotent_and_final () =
  let closes = ref 0 in
  let s = S.create ~close:(fun () -> incr closes) ~emit:(fun _ -> true) () in
  S.close s;
  S.close s;
  check_int "close callback runs once" 1 !closes;
  check_bool "emit after close raises" true
    (match S.emit s "x" with
    | (_ : bool) -> false
    | exception Invalid_argument _ -> true)

let test_create_accounting_tracks_refusals () =
  let n = ref 0 in
  (* accept the first 2 offers, refuse the rest *)
  let s = S.create ~emit:(fun _ -> incr n; !n <= 2) () in
  let accepted = feed s in
  check_bool "acceptance pattern" true
    (accepted = [ true; true; false; false; false ]);
  check_int "emitted" 2 (S.emitted s);
  check_int "dropped" 3 (S.dropped s);
  check_int "bytes only for accepted lines"
    (String.length (List.nth lines 0) + 1 + String.length (List.nth lines 1) + 1)
    (S.bytes s);
  S.close s

let suite =
  [
    Alcotest.test_case "buffer sink appends lines" `Quick
      test_buffer_sink_appends_lines;
    Alcotest.test_case "file sink byte-identical at any chunk size" `Quick
      test_file_bytes_identical_at_any_chunk_size;
    Alcotest.test_case "file sink max-bytes backpressure" `Quick
      test_file_max_bytes_backpressure;
    Alcotest.test_case "max-bytes below one line drops it whole" `Quick
      test_file_max_bytes_smaller_than_one_line;
    Alcotest.test_case "close idempotent, emit-after-close raises" `Quick
      test_close_is_idempotent_and_final;
    Alcotest.test_case "wrapper accounting tracks refusals" `Quick
      test_create_accounting_tracks_refusals;
  ]
