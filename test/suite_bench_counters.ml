(* The bench counter golden, test/golden/bench_counters.jsonl: one line
   per (scenario row, n) of Experiments.Scaling at n = 64 .. 65536,
   holding the row's exact system-call / hop / drop / recovery counters
   and its simulated C/P latency summary.  Simulated time is
   deterministic, so every field is held exactly (up to %.12g
   printing).  The sizes up to 4096 are recomputed here; bench/main.exe
   checks the larger ones it runs (CI's bench-scale job: 16384 and
   65536). *)

module S = Experiments.Scaling

let sizes = [ 64; 256; 1024; 4096; 16384; 65536 ]

(* from the test sandbox under dune runtest, or from the repo root *)
let golden =
  lazy
    (let local = "golden/bench_counters.jsonl" in
     let path = if Sys.file_exists local then local else S.golden_path in
     match S.read_golden path with
     | Ok lines -> lines
     | Error msg -> Alcotest.fail msg)

let line_for (r : S.row) ~n =
  match S.golden_line (Lazy.force golden) ~name:(r.name ~n) with
  | Some line -> line
  | None -> Alcotest.failf "no golden line for %s" (r.name ~n)

(* every row at every size, each line with exactly the fields a
   measurement produces, in the same order *)
let test_complete () =
  let keys = List.map fst in
  let fields = keys (S.measure (List.hd S.rows) ~n:64) in
  Alcotest.(check int)
    "one line per (row, n)"
    (List.length S.rows * List.length sizes)
    (List.length (Lazy.force golden));
  List.iter
    (fun n ->
      List.iter
        (fun (r : S.row) ->
          Alcotest.(check (list string))
            (r.name ~n ^ " fields") fields
            (keys (line_for r ~n)))
        S.rows)
    sizes

let test_recomputed ~n () =
  List.iter
    (fun (r : S.row) ->
      match S.first_difference ~golden:(line_for r ~n) (S.measure r ~n) with
      | None -> ()
      | Some diff -> Alcotest.failf "%s: %s" (r.name ~n) diff)
    S.rows

let suite =
  Alcotest.test_case "golden covers every row at six sizes" `Quick
    test_complete
  :: List.map
       (fun n ->
         Alcotest.test_case
           (Printf.sprintf "n=%d rows match the golden" n)
           (if n >= 4096 then `Slow else `Quick)
           (test_recomputed ~n))
       [ 64; 256; 1024; 4096 ]
