(* Parallel.Pool and Parallel.Sweep: the pool's ordering/exception
   contract, and the headline determinism invariant — per-replica
   metrics are byte-identical whatever the job count. *)

module P = Parallel.Pool
module S = Parallel.Sweep

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let test_map_matches_sequential () =
  let xs = Array.init 100 Fun.id in
  let f x = (x * x) + 1 in
  let expected = Array.map f xs in
  List.iter
    (fun jobs ->
      P.with_pool ~jobs (fun p ->
          Alcotest.(check (array int))
            (Printf.sprintf "jobs=%d" jobs)
            expected (P.map p f xs)))
    [ 1; 2; 3; 4 ]

let test_map_preserves_order () =
  (* results must land in submission slots even when later items finish
     first; item 0 sleeps so a helper drains the rest meanwhile *)
  P.with_pool ~jobs:4 (fun p ->
      let out =
        P.map p
          (fun i ->
            if i = 0 then Unix.sleepf 0.02;
            i * 10)
          (Array.init 32 Fun.id)
      in
      Alcotest.(check (array int))
        "submission order" (Array.init 32 (fun i -> i * 10)) out)

let test_map_empty_and_list () =
  P.with_pool ~jobs:3 (fun p ->
      check_int "empty array" 0 (Array.length (P.map p Fun.id [||]));
      Alcotest.(check (list int)) "map_list" [ 2; 4; 6 ]
        (P.map_list p (fun x -> 2 * x) [ 1; 2; 3 ]))

let test_lowest_index_exception_wins () =
  (* items 3 and 5 both raise; whichever worker hits them, the caller
     must always observe index 3's exception *)
  List.iter
    (fun jobs ->
      P.with_pool ~jobs (fun p ->
          match
            P.map p
              (fun i -> if i = 3 || i = 5 then failwith (string_of_int i) else i)
              (Array.init 8 Fun.id)
          with
          | _ -> Alcotest.fail "expected an exception"
          | exception Failure s ->
              check_string (Printf.sprintf "jobs=%d" jobs) "3" s))
    [ 1; 2; 4 ]

let test_closed_pool_raises () =
  let p = P.create ~jobs:2 in
  P.shutdown p;
  P.shutdown p;
  (* idempotent *)
  check_bool "raises after shutdown" true
    (match P.map p Fun.id [| 1 |] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_jobs_clamped () =
  P.with_pool ~jobs:0 (fun p -> check_int "clamped to 1" 1 (P.jobs p));
  check_bool "default_jobs positive" true (P.default_jobs () >= 1)

let test_with_pool_returns_and_protects () =
  check_int "value" 42 (P.with_pool ~jobs:2 (fun _ -> 42));
  check_bool "exception passes through" true
    (match P.with_pool ~jobs:2 (fun _ -> failwith "boom") with
    | _ -> false
    | exception Failure _ -> true)

let test_pool_reusable_across_generations () =
  P.with_pool ~jobs:3 (fun p ->
      for round = 1 to 5 do
        let out = P.map p (fun x -> x + round) (Array.init 20 Fun.id) in
        check_int
          (Printf.sprintf "round %d" round)
          (19 + round)
          out.(Array.length out - 1)
      done)

(* -- pool telemetry ---------------------------------------------------- *)

let test_stats_account_for_every_item () =
  List.iter
    (fun jobs ->
      P.with_pool ~jobs (fun p ->
          ignore (P.map p (fun x -> x * 2) (Array.init 57 Fun.id) : int array);
          ignore (P.map p (fun x -> x + 1) (Array.init 13 Fun.id) : int array);
          let stats = P.stats p in
          check_int
            (Printf.sprintf "jobs=%d: one stat per worker" jobs)
            jobs (Array.length stats);
          let total field = Array.fold_left (fun a s -> a + field s) 0 stats in
          check_int
            (Printf.sprintf "jobs=%d: tasks sum to items" jobs)
            70
            (total (fun s -> s.P.tasks));
          check_bool "chunks cover the tasks" true
            (total (fun s -> s.P.chunks) >= 1);
          check_int "generations" 2 (P.generations p);
          check_bool "busy time non-negative" true
            (Array.for_all (fun s -> s.P.busy_s >= 0.0) stats);
          check_bool "idle time non-negative" true
            (Array.for_all (fun s -> s.P.idle_s >= 0.0) stats)))
    [ 1; 3 ]

let test_publish_merges_order_independently () =
  (* telemetry must fold through Registry.merge whatever the order the
     per-pool registries are merged in *)
  P.with_pool ~jobs:2 (fun p ->
      ignore (P.map p Fun.id (Array.init 20 Fun.id) : int array);
      let module R = Hardware.Registry in
      let pub () =
        let r = R.create () in
        P.publish p r;
        r
      in
      let a = pub () and b = pub () in
      let ab = R.create () and ba = R.create () in
      R.merge ~into:ab a;
      R.merge ~into:ab b;
      R.merge ~into:ba b;
      R.merge ~into:ba a;
      check_string "merge order-independent"
        (Format.asprintf "%a" R.pp_summary ab)
        (Format.asprintf "%a" R.pp_summary ba);
      (match R.find_counter ab "pool.tasks" with
      | None -> Alcotest.fail "pool.tasks not published"
      | Some c -> check_int "tasks doubled by the merge" 40 (R.counter_value c));
      (* a disabled registry swallows telemetry silently *)
      P.publish p (R.disabled ()))

(* -- chunked self-scheduling ------------------------------------------ *)

let test_chunked_map_matches_sequential () =
  (* every chunk size, every width: same results in the same slots *)
  let xs = Array.init 101 Fun.id in
  let f x = (x * 31) mod 257 in
  let expected = Array.map f xs in
  List.iter
    (fun jobs ->
      P.with_pool ~jobs (fun p ->
          List.iter
            (fun chunk ->
              Alcotest.(check (array int))
                (Printf.sprintf "jobs=%d chunk=%d" jobs chunk)
                expected
                (P.map ~chunk p f xs))
            [ 1; 2; 7; 101; 1000 ]))
    [ 1; 2; 4 ]

let test_chunked_preserves_order () =
  P.with_pool ~jobs:4 (fun p ->
      let out =
        P.map ~chunk:3 p
          (fun i ->
            if i = 0 then Unix.sleepf 0.02;
            i * 10)
          (Array.init 32 Fun.id)
      in
      Alcotest.(check (array int))
        "submission order" (Array.init 32 (fun i -> i * 10)) out)

let test_chunked_exception_contract () =
  (* the lowest-index exception must win even when both raising items
     land in the same chunk *)
  P.with_pool ~jobs:2 (fun p ->
      match
        P.map ~chunk:8 p
          (fun i -> if i = 3 || i = 5 then failwith (string_of_int i) else i)
          (Array.init 16 Fun.id)
      with
      | _ -> Alcotest.fail "expected an exception"
      | exception Failure s -> check_string "lowest index" "3" s)

let test_chunk_validation () =
  P.with_pool ~jobs:2 (fun p ->
      check_bool "chunk=0 rejected" true
        (match P.map ~chunk:0 p Fun.id [| 1 |] with
        | _ -> false
        | exception Invalid_argument _ -> true))

let qcheck_chunked_deterministic =
  QCheck.Test.make ~name:"chunked map equals List.map at any (width, chunk)"
    ~count:30
    QCheck.(triple (list small_int) (int_range 1 4) (int_range 1 40))
    (fun (xs, jobs, chunk) ->
      let f x = (x * 7) mod 13 in
      P.with_pool ~jobs (fun p -> P.map_list ~chunk p f xs) = List.map f xs)

(* -- the determinism suite -------------------------------------------- *)

(* The tentpole invariant: for every profile scenario, a sweep's
   parallelism-invariant JSON is byte-identical at jobs=1 and jobs=4.
   Small n keeps the seven scenarios fast; the bench harness re-checks
   at full size. *)
let test_determinism_all_scenarios () =
  P.with_pool ~jobs:4 (fun p ->
      List.iter
        (fun sc ->
          let seq = S.run sc ~replicas:5 ~n:24 ~seed:42 () in
          let par = S.run ~pool:p sc ~replicas:5 ~n:24 ~seed:42 () in
          check_string
            (S.scenario_name sc)
            (S.metrics_json seq) (S.metrics_json par);
          check_int
            (S.scenario_name sc ^ " jobs recorded")
            4 par.S.jobs)
        S.all_scenarios)

(* Same sweep, different pool widths: still identical — placement
   independence, not just a lucky schedule at one width. *)
let test_determinism_across_widths () =
  let reference = S.metrics_json (S.run S.Election ~replicas:6 ~n:16 ~seed:3 ()) in
  List.iter
    (fun jobs ->
      P.with_pool ~jobs (fun p ->
          check_string
            (Printf.sprintf "jobs=%d" jobs)
            reference
            (S.metrics_json (S.run ~pool:p S.Election ~replicas:6 ~n:16 ~seed:3 ()))))
    [ 2; 3 ]

(* The sweeps' metrics pinned by digest: every scenario's replica
   metrics and merged registry at n=32, seed 7, 3 replicas.  Any change
   to how a family is dispatched or configured moves its digest. *)
let sweep_digests =
  [
    (S.Bpaths, "574f4eaa11ac0832e7198831af36b60e");
    (S.Flood, "bfb62d397bc383d20d5b92f4450233c8");
    (S.Dfs, "4d7f2ea5696113de27ac97dfb70ccf46");
    (S.Direct, "3b4462d14890fd3c02b7a70057e940d3");
    (S.Layered, "8a4cabad5152690f8186005814cacd80");
    (S.Election, "14b5feda27731b64854ea958d9a604a4");
    (S.Maintenance, "51d9370939d3fd3bcc4c5bf2b710faa1");
  ]

let test_sweep_digests_pinned () =
  check_int "every scenario pinned" (List.length S.all_scenarios)
    (List.length sweep_digests);
  List.iter
    (fun (sc, want) ->
      let s = S.run sc ~replicas:3 ~n:32 ~seed:7 () in
      check_string (S.scenario_name sc) want
        (Digest.to_hex (Digest.string (S.metrics_json s))))
    sweep_digests

let test_sweep_merged_registry () =
  (* the merged registry must equal the sum of sequential per-replica
     registries: net.syscalls summed across replicas *)
  let s = S.run S.Flood ~replicas:4 ~n:16 ~seed:5 () in
  let expected =
    Array.fold_left (fun acc r -> acc + r.S.syscalls) 0 s.S.replicas
  in
  match Hardware.Registry.find_counter s.S.merged "net.syscalls" with
  | None -> Alcotest.fail "merged registry lacks net.syscalls"
  | Some c ->
      check_int "summed syscalls" expected (Hardware.Registry.counter_value c)

let test_sweep_rejects_bad_replicas () =
  check_bool "replicas=0 rejected" true
    (match S.run S.Flood ~replicas:0 ~n:8 ~seed:1 () with
    | _ -> false
    | exception Invalid_argument _ -> true)

let qcheck_map_is_pure_map =
  QCheck.Test.make ~name:"pool map equals List.map at any width" ~count:30
    QCheck.(pair (list small_int) (int_range 1 4))
    (fun (xs, jobs) ->
      let f x = (x * 7) mod 13 in
      P.with_pool ~jobs (fun p -> P.map_list p f xs) = List.map f xs)

let suite =
  [
    Alcotest.test_case "map matches sequential" `Quick
      test_map_matches_sequential;
    Alcotest.test_case "map preserves submission order" `Quick
      test_map_preserves_order;
    Alcotest.test_case "empty map and map_list" `Quick test_map_empty_and_list;
    Alcotest.test_case "lowest-index exception wins" `Quick
      test_lowest_index_exception_wins;
    Alcotest.test_case "closed pool raises" `Quick test_closed_pool_raises;
    Alcotest.test_case "jobs clamped" `Quick test_jobs_clamped;
    Alcotest.test_case "with_pool returns and protects" `Quick
      test_with_pool_returns_and_protects;
    Alcotest.test_case "pool reusable across generations" `Quick
      test_pool_reusable_across_generations;
    Alcotest.test_case "stats account for every item" `Quick
      test_stats_account_for_every_item;
    Alcotest.test_case "publish merges order-independently" `Quick
      test_publish_merges_order_independently;
    Alcotest.test_case "chunked map matches sequential" `Quick
      test_chunked_map_matches_sequential;
    Alcotest.test_case "chunked map preserves order" `Quick
      test_chunked_preserves_order;
    Alcotest.test_case "chunked exception contract" `Quick
      test_chunked_exception_contract;
    Alcotest.test_case "chunk validation" `Quick test_chunk_validation;
    QCheck_alcotest.to_alcotest qcheck_chunked_deterministic;
    Alcotest.test_case "determinism: all scenarios, jobs 1 = jobs 4" `Slow
      test_determinism_all_scenarios;
    Alcotest.test_case "determinism across pool widths" `Quick
      test_determinism_across_widths;
    Alcotest.test_case "sweep metrics digests pinned" `Quick
      test_sweep_digests_pinned;
    Alcotest.test_case "merged registry sums replicas" `Quick
      test_sweep_merged_registry;
    Alcotest.test_case "bad replica count rejected" `Quick
      test_sweep_rejects_bad_replicas;
    QCheck_alcotest.to_alcotest qcheck_map_is_pure_map;
  ]
