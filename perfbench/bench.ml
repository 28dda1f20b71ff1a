(* perfbench: the repository's benchmark.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               [--exact-file PATH]
     bench.exe --selftest

   One workload per process, single-threaded.  Set-up (cold graph
   build, compile, two warm-up ops) runs [setup_reps] times and
   reports its median, host speed factored out as for ops (below);
   the timed phase is a closed loop of checked ops
   for [--seconds], and at least [min_ops] of them, so that the p90
   has at least ten samples beyond it.

   Op latency is reported relative to the host's speed at the time:
   each timed op follows one run of [Reference.run], and its cost is
   the op's host time divided by the kernel's.  [op_p50_ref] and
   [op_p90_ref] are the p50 and p90 of that ratio.  On a shared host
   the op times themselves move by up to 1.5x between runs of one
   binary and seed, as other tenants come and go; the ratio moves by
   a few percent.  The host-time p50, p90 and [ops_per_s] are printed
   on stderr with the sample count.  [setup_s] is the median of each
   set-up's time over the kernel's time just before it, times
   [Reference.nominal_s]: seconds at one fixed host speed.

   [--trace 0] prints the end-to-end metrics.  [--trace 1] runs the
   loop untraced for half the time and traced for the other half, then
   one counting pass per input with a registry attached, and prints
   the per-layer metrics.  The last stdout line is the result object;
   everything else goes to stderr.

   Simulated costs are exact: every repeat of an input must reproduce
   them, or the benchmark refuses to report (exit 3).  [--exact-file]
   writes the run's exact metrics, so two runs can be compared. *)

module W = Workloads

let setup_reps = 9
let warmup_ops = 2
let min_ops = 100

(* -- arguments --------------------------------------------------------- *)

type args = {
  workload : W.t;
  seed : int;
  seconds : float;
  trace : bool;
  exact_file : string option;
}

let usage msg =
  Printf.eprintf
    "bench: %s\n\
     usage: bench.exe --workload {%s} --seed N --seconds S --trace {0|1} [--exact-file PATH]\n\
    \       bench.exe --selftest\n"
    msg
    (String.concat "|" (List.map (fun (w : W.t) -> w.name) W.all));
  exit 2

let parse_args argv =
  let rec pairs acc = function
    | [] -> acc
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" -> pairs ((k, v) :: acc) rest
    | k :: _ -> usage (Printf.sprintf "unexpected argument %S" k)
  in
  let kv = pairs [] argv in
  List.iter
    (fun (k, _) ->
      if not (List.mem k [ "--workload"; "--seed"; "--seconds"; "--trace"; "--exact-file" ]) then
        usage (Printf.sprintf "unknown option %s" k))
    kv;
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage ("missing " ^ k) in
  let int_arg k ~ok =
    match int_of_string_opt (get k) with
    | Some v when ok v -> v
    | _ -> usage (Printf.sprintf "malformed %s %S" k (get k))
  in
  let workload =
    match W.find (get "--workload") with
    | Some w -> w
    | None -> usage (Printf.sprintf "unknown workload %S" (get "--workload"))
  in
  {
    workload;
    seed = int_arg "--seed" ~ok:(fun s -> s >= 0);
    seconds = float_of_int (int_arg "--seconds" ~ok:(fun s -> s > 0));
    trace = int_arg "--trace" ~ok:(fun t -> t = 0 || t = 1) = 1;
    exact_file = List.assoc_opt "--exact-file" kv;
  }

(* -- measurement ------------------------------------------------------- *)

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let k = Array.length a in
  if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.

(* nearest-rank percentile *)
let percentile sorted q =
  let k = Array.length sorted in
  sorted.(max 0 (min (k - 1) (int_of_float (Float.ceil (q *. float_of_int k)) - 1)))

(* Set-up [setup_reps] times from a cold cache; keep the last instance.
   The compaction frees the previous repetition's artifacts, so that
   the peak heap is that of one set-up and the first [min_ops] timed
   ops: a fixed amount of work, read before the run's length (which
   follows the host's speed) can move it. *)
let set_up (w : W.t) obs ~seed tally =
  let last = ref None in
  let times =
    Array.init setup_reps (fun _ ->
        Compile.Cache.clear ();
        Gc.compact ();
        let r0 = Obs.now () in
        Reference.run ();
        let r = Obs.ns_since r0 in
        let t0 = Obs.now () in
        let inst = w.setup obs ~seed in
        for i = 0 to warmup_ops - 1 do
          let input = i mod inst.inputs in
          Tally.record tally input (inst.op input)
        done;
        last := Some inst;
        Obs.ns_since t0 /. r)
  in
  (Option.get !last, median times *. Reference.nominal_s)

(* The closed loop: ops cycle through the inputs from input 0, for
   [seconds] and at least [floor] ops and one pass over the inputs;
   [at_floor] runs once, after the op that reaches the floor.
   Returns each op's host time (ns) and that of the reference kernel
   run just before it, in op order. *)
let run_phase (inst : W.instance) tally ?obs ?(after_op = ignore) ?(at_floor = ignore) ~floor
    ~seconds () =
  let floor = max floor inst.inputs in
  let durations = ref [] and refs = ref [] and count = ref 0 in
  let t_start = Obs.now () in
  let op_span = Option.map (fun o -> Obs.span o "op") obs in
  while Obs.ns_since t_start < seconds *. 1e9 || !count < floor do
    let input = !count mod inst.inputs in
    let r0 = Obs.now () in
    Reference.run ();
    refs := Obs.ns_since r0 :: !refs;
    let t0 = Obs.now () in
    let o = inst.op ?obs input in
    let d = Obs.ns_since t0 in
    Option.iter (fun s -> Obs.stop s t0) op_span;
    after_op ();
    Tally.record tally input o;
    durations := d :: !durations;
    incr count;
    if !count = floor then at_floor ()
  done;
  (Array.of_list (List.rev !durations), Array.of_list (List.rev !refs))

let ops_per_s durations = float_of_int (Array.length durations) /. (Array.fold_left ( +. ) 0. durations *. 1e-9)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* -- traced run: counting pass ---------------------------------------- *)

(* One op per input with a fresh registry, from a compacted heap and
   read after a minor collection (between collections the runtime's
   minor-word count is only good to half a minor heap), so that the
   counts and the minor words allocated are a function of the input
   alone.  Promoted words are not: OCaml 5 starts extra minor
   collections when the major GC asks for a slice, and when it asks
   depends on the heap the run has built up (two runs of one seed
   differ by up to 2% even after compaction).  Returns per-op means
   over the inputs. *)
let counting_pass (inst : W.instance) tally =
  let sums = Hashtbl.create 32 in
  let add k v = Hashtbl.replace sums k (v +. Option.value ~default:0. (Hashtbl.find_opt sums k)) in
  for input = 0 to inst.inputs - 1 do
    let registry = Hardware.Registry.create () in
    Gc.compact ();
    let g0 = Gc.quick_stat () in
    let o = inst.op ~registry input in
    Gc.minor ();
    let g1 = Gc.quick_stat () in
    Tally.record tally input o;
    add "gc.minor_words" (g1.minor_words -. g0.minor_words);
    add "gc.promoted_words" (g1.promoted_words -. g0.promoted_words);
    List.iter (fun (k, v) -> add k v) (Lazy.force o.counts)
  done;
  let k = float_of_int inst.inputs in
  fun name -> Option.value ~default:0. (Hashtbl.find_opt sums name) /. k

(* -- output ------------------------------------------------------------ *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~(tally : Tally.t) metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct tally.attempted tally.failed body

let write_exact path metrics =
  let oc = open_out path in
  output_string oc "{";
  output_string oc
    (String.concat ", "
       (List.map (fun (name, v, _) -> Printf.sprintf "%S: %s" name (json_number v)) metrics));
  output_string oc "}\n";
  close_out oc

(* The simulated and counted metrics must repeat exactly across runs
   of one binary with one seed (the minor words to ~1e-5). *)
let is_exact (name, _, _) =
  List.exists
    (fun p -> String.length name >= String.length p && String.sub name 0 (String.length p) = p)
    [ "sim_"; "core.activations"; "net."; "election."; "maint."; "recover."; "compile.cache_"; "gc.minor_words" ]

(* -- main -------------------------------------------------------------- *)

let end_to_end (w : W.t) args =
  let tally = Tally.create () in
  let inst, setup_s = set_up w None ~seed:args.seed tally in
  let c0 = Compile.Cache.stats () in
  let peak_heap = ref 0. in
  let durations, refs =
    run_phase inst tally ~floor:min_ops ~seconds:args.seconds
      ~at_floor:(fun () -> peak_heap := peak_heap_mb ())
      ()
  in
  let misses = (Compile.Cache.stats ()).misses - c0.misses in
  let sorted a =
    let a = Array.copy a in
    Array.sort compare a;
    a
  in
  let ratios = sorted (Array.map2 ( /. ) durations refs) in
  let ms = sorted durations and ref_ms = sorted refs in
  let sim_syscalls, sim_time = Tally.sim_means tally in
  Printf.eprintf
    "%s: %d timed ops (the p50/p90 sample count); host time op_p50_ms %g, op_p90_ms %g, \
     ops_per_s %g, reference kernel p50 %g ms; %d checked, %d failed, op_fail_ratio %g, \
     compile cache misses in timed ops %d\n%!"
    w.name (Array.length durations)
    (percentile ms 0.5 *. 1e-6) (percentile ms 0.9 *. 1e-6) (ops_per_s durations)
    (percentile ref_ms 0.5 *. 1e-6) tally.attempted tally.failed
    (float_of_int tally.failed /. float_of_int tally.attempted)
    misses;
  ( tally,
    misses = 0,
    [
      ("setup_s", setup_s, "s");
      ("op_p50_ref", percentile ratios 0.5, "ref");
      ("op_p90_ref", percentile ratios 0.9, "ref");
      ("peak_heap_mb", !peak_heap, "MiB");
      ("sim_syscalls_per_op", sim_syscalls, "count");
      ("sim_time_per_op", sim_time, "P");
    ] )

let per_layer (w : W.t) args =
  let tally = Tally.create () in
  let obs = Obs.create () in
  let inst, _ = set_up w (Some obs) ~seed:args.seed tally in
  let setup_s name = Obs.total_ns obs name *. 1e-9 /. float_of_int setup_reps in
  let c0 = Compile.Cache.stats () in
  let half = args.seconds /. 2. in
  let untraced, _ = run_phase inst tally ~floor:1 ~seconds:half () in
  let gc = Obs.Gc_time.start () in
  let traced, _ =
    run_phase inst tally ~obs ~after_op:(fun () -> Obs.Gc_time.poll gc) ~floor:1 ~seconds:half ()
  in
  let c1 = Compile.Cache.stats () in
  let timed_ops = float_of_int (Array.length untraced + Array.length traced) in
  let count = counting_pass inst tally in
  let ops = float_of_int (Array.length traced) in
  let per_op_ms name = Obs.total_ns obs name *. 1e-6 /. ops in
  let handler_ms = per_op_ms "core.handler" in
  let is_broadcast = w.name = "broadcast" in
  let activations = count "core.activations" in
  Format.eprintf "%a%!" Obs.pp obs;
  ( tally,
    c1.misses = c0.misses,
    [
      ("graph.build_s", setup_s "graph.build", "s");
      ("graph.bfs_s", setup_s "graph.bfs", "s");
      ("compile.labels_s", setup_s "compile.labels", "s");
      ("compile.routes_s", setup_s "compile.routes", "s");
      ("compile.cache_hits", float_of_int (c1.hits - c0.hits) /. timed_ops, "1/op");
      ("compile.cache_misses", float_of_int (c1.misses - c0.misses) /. timed_ops, "1/op");
      ("core.handler_ms_per_op", handler_ms, "ms");
      ("core.outside_handler_ms_per_op", (if is_broadcast then per_op_ms "op" -. handler_ms else 0.), "ms");
      ("core.activations_per_op", activations, "count");
      ("net.hops_per_op", count "net.hops", "count");
      ("net.sends_per_op", count "net.sends", "count");
      ("net.drops_per_op", count "net.drops", "count");
      ("net.useful_ratio", (if activations > 0. then count "net.reached" /. activations else 0.), "ratio");
      ("election.tours_per_op", count "election.tours", "count");
      ("election.captures_per_op", count "election.captures", "count");
      ("election.budget_ratio", count "election.syscalls" /. float_of_int (6 * w.n), "ratio");
      ("maint.broadcasts_per_op", count "maint.broadcasts", "count");
      ("maint.rounds_per_op", count "maint.rounds", "count");
      ("recover.retransmits_per_op", count "recover.retransmits", "count");
      ("recover.acks_per_op", count "recover.acks", "count");
      ("recover.timeouts_per_op", count "recover.timeouts", "count");
      ("recover.restarts_per_op", count "recover.restarts", "count");
      ("recover.give_ups_per_op", count "recover.give_ups", "count");
      ("chaos.generate_ms_per_op", per_op_ms "chaos.generate", "ms");
      ("chaos.run_ms_per_op", per_op_ms "chaos.run", "ms");
      ("gc.minor_words_per_op", count "gc.minor_words", "words");
      ("gc.promoted_words_per_op", count "gc.promoted_words", "words");
      ("gc.minor_ms_per_op", !(gc.minor_ns) *. 1e-6 /. ops, "ms");
      ("gc.major_ms_per_op", !(gc.major_ns) *. 1e-6 /. ops, "ms");
      ("obs.overhead_ratio", ops_per_s traced /. ops_per_s untraced, "ratio");
    ] )

let main args =
  let tally, cache_ok, metrics =
    (if args.trace then per_layer else end_to_end) args.workload args
  in
  (match tally.Tally.drift with
  | Some msg ->
      Printf.eprintf "bench: refusing to report, %s\n" msg;
      exit 3
  | None -> ());
  Option.iter (fun path -> write_exact path (List.filter is_exact metrics)) args.exact_file;
  if not cache_ok then prerr_endline "bench: the compile cache missed during timed ops";
  print_result ~correct:(cache_ok && tally.failed = 0) ~tally metrics

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "--selftest" ] -> Selftest.run ()
  | argv -> main (parse_args argv)
