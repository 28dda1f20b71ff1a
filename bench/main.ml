(* The bench gates over the scenario table (Experiments.Scaling).

     main.exe bench [--sizes N,N,...] [--scenarios K,K,...] [--jobs N]
                    [--monitors] [--mem-budget B] [--stream]
                    [--obs-overhead]

   For each size, in ascending order (default 64,256,1024,4096):

   - every scenario row (or the --scenarios subset of flood, bpaths,
     election, maintenance, recover) runs once with a metrics registry
     and a streaming C/P latency consumer attached.  Its counter line
     is printed and compared with the row's line in
     test/golden/bench_counters.jsonl; a difference exits 4 and names
     the first differing field.  The printed lines are the golden's
     format, so a deliberate behaviour change re-baselines by pasting
     them in;
   - --jobs N (N > 1): three replica sweeps run inline and through an
     N-wide pool; metrics that differ exit 5 after Query.Diff names
     the first divergent event (skipped above 8192);
   - --stream: one branching-paths broadcast streamed through a
     chunked file sink to _artifacts/TRACE_<n>.jsonl;
   - --obs-overhead: both broadcasts timed traces-off, with disabled
     instruments attached, and streaming to a file sink; a ratio over
     its budget exits 8;
   - --monitors: Theorem 2, FIFO links, Theorem 5 and the 2n+2 header
     ceiling checked on one run each; a violation exits 3;
   - --mem-budget B: the process heap high-water mark must stay under
     64 MiB + B*n bytes, or exit 7. *)

module Scaling = Experiments.Scaling

let default_sizes = [ 64; 256; 1024; 4096 ]

(* Streamed traces and obs-overhead spools land here. *)
let artifacts = "_artifacts"

let in_artifacts file =
  if not (Sys.file_exists artifacts) then Sys.mkdir artifacts 0o755;
  Filename.concat artifacts file

let row key = Option.get (Scaling.find key)

(* -- the counter golden ------------------------------------------------ *)

let golden =
  lazy
    (match Scaling.read_golden Scaling.golden_path with
    | Ok lines -> lines
    | Error msg ->
        Printf.eprintf "bench: cannot read the counter golden: %s\n" msg;
        exit 4)

let check_rows ~rows ~n =
  List.iter
    (fun (r : Scaling.row) ->
      let line = Scaling.measure r ~n in
      print_endline (Sim.Json.render (Sim.Json.Obj line));
      let name = r.name ~n in
      match Scaling.golden_line (Lazy.force golden) ~name with
      | None -> Printf.printf "  (%s has no golden line: unchecked)\n%!" name
      | Some golden -> (
          match Scaling.first_difference ~golden line with
          | None -> ()
          | Some diff ->
              Printf.eprintf "%s differs from %s: %s\n" name
                Scaling.golden_path diff;
              exit 4))
    rows

(* -- parallel sweep determinism (bench --jobs) ------------------------- *)

let sweep_scenarios =
  [ Parallel.Sweep.Bpaths; Parallel.Sweep.Flood; Parallel.Sweep.Election ]

(* When a sweep's metrics diverge between job counts, re-run it with
   ~keep_events:true at jobs=1 and jobs=N and hand the first divergent
   replica's event streams to Query.Diff: the exit-5 report names the
   event index, the charged node and the binding-predecessor chain
   instead of just a boolean. *)
let localise_divergence ~jobs ~n sc =
  let module S = Parallel.Sweep in
  let s1 = S.run sc ~n ~seed:42 ~keep_events:true () in
  let sn =
    Parallel.Pool.with_pool ~jobs (fun pool ->
        S.run ~pool sc ~n ~seed:42 ~keep_events:true ())
  in
  let count = min (Array.length s1.S.events) (Array.length sn.S.events) in
  let rec first i =
    if i >= count then None
    else if s1.S.events.(i) <> sn.S.events.(i) then Some i
    else first (i + 1)
  in
  match first 0 with
  | None ->
      Printf.eprintf
        "  %s: replica traces replayed identically on the keep-events \
         re-run — the metrics divergence did not reproduce\n"
        (S.scenario_name sc)
  | Some i ->
      let outcome =
        Query.Diff.of_events ~baseline:s1.S.events.(i) sn.S.events.(i)
      in
      Printf.eprintf "  %s, replica %d:\n" (S.scenario_name sc) i;
      List.iter
        (fun l -> if l <> "" then Printf.eprintf "    %s\n" l)
        (String.split_on_char '\n'
           (Query.Diff.report ~baseline:"jobs=1"
              ~candidate:(Printf.sprintf "jobs=%d" jobs)
              outcome))

let check_sweeps ~jobs ~n =
  let module S = Parallel.Sweep in
  let metrics ?pool sc = S.metrics_json (S.run ?pool sc ~n ~seed:42 ()) in
  let diverged =
    Parallel.Pool.with_pool ~jobs (fun pool ->
        List.filter
          (fun sc -> not (String.equal (metrics sc) (metrics ~pool sc)))
          sweep_scenarios)
  in
  List.iter
    (fun sc ->
      Printf.printf "sweep %-12s jobs=1 vs jobs=%d: %s\n" (S.scenario_name sc)
        jobs
        (if List.mem sc diverged then "METRICS DIVERGED" else "identical"))
    sweep_scenarios;
  if diverged <> [] then begin
    Printf.eprintf "n=%d: parallel sweep metrics diverged between job counts\n"
      n;
    List.iter (localise_divergence ~jobs ~n) diverged;
    exit 5
  end

(* -- observability overhead gate (bench --obs-overhead) --------------- *)

(* Three variants of each broadcast scenario, timed min-of-k in
   round-robin order (so clock drift hits all variants alike):

   - off      : no trace, no registry — the production fast path;
   - disabled : a disabled trace and registry attached — must cost the
                same as off, or the zero-allocation disabled-path
                guarantee has regressed (DESIGN.md section 7);
   - stream   : every event serialised through a chunked file sink —
                the full streaming-export tax.

   The disabled budget is tight by design; the streaming budget is
   loose because a microsecond-scale broadcast pays ~0.5us of Printf
   per event, which is the cost of exporting at all, not a regression
   surface. *)
let obs_budget_disabled = 1.05
let obs_budget_stream = 40.0
let obs_repeats ~n = if n <= 256 then 30 else if n <= 4096 then 10 else 3

(* Each timed sample runs the scenario [iters] times back to back:
   sub-millisecond scenarios jitter ~10% even under min-of-k, which
   would trip the 1.05x disabled-path gate on noise alone, so the
   batch size is calibrated off a warmup lap to put every sample in
   the milliseconds. *)
let time_variants ~repeats fs =
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let fastest = Array.fold_left Float.min infinity (Array.map time fs) in
  let iters = max 1 (min 64 (int_of_float (0.005 /. Float.max fastest 1e-9))) in
  let best = Array.make (Array.length fs) infinity in
  for _ = 1 to repeats do
    Array.iteri
      (fun i f ->
        let d =
          time (fun () ->
              for _ = 1 to iters do
                f ()
              done)
          /. float_of_int iters
        in
        if d < best.(i) then best.(i) <- d)
      fs
  done;
  best

let check_obs_overhead ~n =
  let stream_path = in_artifacts (Printf.sprintf "OBS_STREAM_%d.jsonl" n) in
  let ratio num den = num /. Float.max den 1e-9 in
  Printf.printf "%-45s %10s %10s %7s %10s %7s %9s %10s\n" "scenario" "off (ms)"
    "disab (ms)" "ratio" "strm (ms)" "ratio" "events" "bytes";
  let violations =
    List.concat_map
      (fun (r : Scaling.row) ->
        let run ?registry ?trace () = ignore (r.run ?registry ?trace ~n ()) in
        let disabled () =
          run ~registry:(Hardware.Registry.disabled ())
            ~trace:(Sim.Trace.disabled ()) ()
        in
        let events = ref 0 and bytes = ref 0 in
        let stream () =
          let sink = Sim.Sink.file stream_path in
          Fun.protect
            ~finally:(fun () -> Sim.Sink.close sink)
            (fun () ->
              ignore (Sim.Sink.emit sink (Sim.Trace_export.stream_header ()));
              let trace = Sim.Trace_export.stream_trace sink in
              run ~registry:(Hardware.Registry.create ()) ~trace ();
              Sim.Trace_export.stream_finish sink trace);
          events := Sim.Sink.emitted sink;
          bytes := Sim.Sink.bytes sink
        in
        let best =
          time_variants ~repeats:(obs_repeats ~n)
            [| (fun () -> run ()); disabled; stream |]
        in
        let d = ratio best.(1) best.(0) and s = ratio best.(2) best.(0) in
        let name = r.name ~n in
        Printf.printf "%-45s %10.4f %10.4f %6.3fx %10.4f %6.2fx %9d %10d\n"
          name (best.(0) *. 1e3) (best.(1) *. 1e3) d (best.(2) *. 1e3) s
          !events !bytes;
        (if d > obs_budget_disabled then
           [
             Printf.sprintf "%s: disabled-path ratio %.3f > %.2f" name d
               obs_budget_disabled;
           ]
         else [])
        @
        if s > obs_budget_stream then
          [
            Printf.sprintf "%s: streaming ratio %.2f > %.0f" name s
              obs_budget_stream;
          ]
        else [])
      [ row "flood"; row "bpaths" ]
  in
  (try Sys.remove stream_path with Sys_error _ -> ());
  Printf.printf
    "budgets: disabled <= %.2fx, streaming <= %.0fx (violation exits 8)\n%!"
    obs_budget_disabled obs_budget_stream;
  if violations <> [] then begin
    List.iter
      (fun v -> Printf.eprintf "n=%d: observability overhead: %s\n" n v)
      violations;
    exit 8
  end

(* -- streamed trace export (bench --stream) --------------------------- *)

(* One branching-paths broadcast through the chunked file sink: the
   bounded-memory export path the scale sizes exercise under
   --mem-budget.  The serialised lines are pure churn, so the sink
   paces the GC like Scaling.measure's consumer does. *)
let stream_trace_export ~n =
  let path = in_artifacts (Printf.sprintf "TRACE_%d.jsonl" n) in
  let file = Sim.Sink.file path in
  let sink =
    Sim.Sink.create
      ~emit:(Scaling.gc_paced ~n (Sim.Sink.emit file))
      ~close:(fun () -> Sim.Sink.close file)
      ()
  in
  Fun.protect
    ~finally:(fun () -> Sim.Sink.close sink)
    (fun () ->
      ignore
        (Sim.Sink.emit sink
           (Sim.Trace_export.stream_header
              ~fields:
                [
                  ("scenario", "\"branching-paths-broadcast\"");
                  ("n", string_of_int n);
                  ("seed", "42");
                  ("root", "0");
                ]
              ()));
      let trace = Sim.Trace_export.stream_trace sink in
      ignore ((row "bpaths").run ~trace ~n () : Hardware.Monitor.report list);
      Sim.Trace_export.stream_finish sink trace);
  Printf.printf "streamed trace, n = %d: %d events (%d bytes) -> %s\n%!" n
    (Sim.Sink.emitted file) (Sim.Sink.bytes file) path

(* -- paper-bound monitors (bench --monitors) --------------------------- *)

(* One checked execution of each bounded row, in fail mode, so a CI
   bench run re-verifies Theorem 2 and the 6n election budget on the
   sizes it runs.  Only the broadcast records a ring trace: the FIFO
   monitor replays it. *)
let check_monitors ~n =
  let trace = Sim.Trace.create () in
  let broadcast = (row "bpaths").run ~trace ~n () in
  let fifo = Hardware.Monitor.fifo_per_link trace in
  let reports = broadcast @ (fifo :: (row "election").run ~n ()) in
  List.iter (fun r -> Format.printf "%a@." Hardware.Monitor.pp_report r) reports;
  match Hardware.Monitor.enforce Hardware.Monitor.Fail reports with
  | _ -> ()
  | exception Hardware.Monitor.Violation failed ->
      Printf.eprintf "n=%d: %d monitor violation(s)\n" n (List.length failed);
      exit 3

(* -- memory accounting (bench --mem-budget) --------------------------- *)

(* [top_heap_words] is the high-water mark of the major heap over the
   whole process, so with sizes run in ascending order the reading
   after size [n] is the peak over all sizes <= n — still O(n) iff
   every per-size structure is.  The budget is [mem_base + b*n] bytes:
   a flat allowance for the runtime and the binary itself, plus a
   caller-chosen per-node constant. *)
let mem_base = 64 * 1024 * 1024

let check_mem_budget ~n ~budget =
  let peak = (Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8) in
  let limit = mem_base + (budget * n) in
  Printf.printf
    "n=%d: peak heap %d bytes (%.1f MiB), budget %d (base %d + %d/node)\n%!"
    n peak
    (float_of_int peak /. 1024.0 /. 1024.0)
    limit mem_base budget;
  if peak > limit then begin
    Printf.eprintf
      "n=%d: peak heap %d bytes exceeds O(n) budget %d (base %d + %d \
       bytes/node)\n"
      n peak limit mem_base budget;
    exit 7
  end

(* -- argv ------------------------------------------------------------- *)

type opts = {
  sizes : int list;
  rows : Scaling.row list;
  jobs : int;
  monitors : bool;
  mem_budget : int option;
  stream : bool;
  obs : bool;
}

let run o =
  List.iter
    (fun n ->
      Printf.printf "\n-- n = %d --\n%!" n;
      check_rows ~rows:o.rows ~n;
      Format.printf "%a@." Compile.Cache.pp_stats ();
      if o.jobs > 1 then
        if n > Scaling.scale_threshold then
          Printf.printf "sweeps skipped above n = %d\n" Scaling.scale_threshold
        else check_sweeps ~jobs:o.jobs ~n;
      if o.stream then stream_trace_export ~n;
      if o.obs then check_obs_overhead ~n;
      if o.monitors then check_monitors ~n;
      Option.iter (fun budget -> check_mem_budget ~n ~budget) o.mem_budget)
    (List.sort_uniq compare o.sizes)

let usage () =
  prerr_endline
    "usage: main.exe bench [--sizes N,N,...] [--scenarios K,K,...] [--jobs N]\n\
    \                      [--monitors] [--mem-budget BYTES] [--stream]\n\
    \                      [--obs-overhead]";
  exit 2

let positive value =
  match int_of_string_opt value with Some v when v >= 1 -> v | _ -> usage ()

let rec parse o = function
  | [] -> o
  | "--sizes" :: v :: rest ->
      let sizes =
        List.map (fun s -> positive (String.trim s)) (String.split_on_char ',' v)
      in
      if List.exists (fun n -> n < 4) sizes then usage ();
      parse { o with sizes } rest
  | "--scenarios" :: v :: rest ->
      let rows =
        List.map
          (fun k ->
            match Scaling.find (String.trim k) with
            | Some r -> r
            | None -> usage ())
          (String.split_on_char ',' v)
      in
      parse { o with rows } rest
  | "--jobs" :: v :: rest -> parse { o with jobs = positive v } rest
  | "--mem-budget" :: v :: rest ->
      parse { o with mem_budget = Some (positive v) } rest
  | "--monitors" :: rest -> parse { o with monitors = true } rest
  | "--stream" :: rest -> parse { o with stream = true } rest
  | "--obs-overhead" :: rest -> parse { o with obs = true } rest
  | _ -> usage ()

let () =
  match Array.to_list Sys.argv with
  | _ :: "bench" :: args ->
      run
        (parse
           {
             sizes = default_sizes;
             rows = Scaling.rows;
             jobs = 1;
             monitors = false;
             mem_budget = None;
             stream = false;
             obs = false;
           }
           args)
  | _ -> usage ()
