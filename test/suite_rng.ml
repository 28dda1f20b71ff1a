(* Tests for Sim.Rng: determinism, ranges, split independence. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_deterministic () =
  let a = Sim.Rng.create ~seed:42 and b = Sim.Rng.create ~seed:42 in
  let draws r = List.init 100 (fun _ -> Sim.Rng.int r 1000) in
  Alcotest.(check (list int)) "same seed, same stream" (draws a) (draws b)

let test_different_seeds () =
  let a = Sim.Rng.create ~seed:1 and b = Sim.Rng.create ~seed:2 in
  let draws r = List.init 50 (fun _ -> Sim.Rng.int r 1_000_000) in
  check "different seeds diverge" true (draws a <> draws b)

let test_int_range () =
  let r = Sim.Rng.create ~seed:7 in
  for _ = 1 to 1000 do
    let x = Sim.Rng.int r 17 in
    check "in range" true (x >= 0 && x < 17)
  done

let test_int_rejects_nonpositive () =
  let r = Sim.Rng.create ~seed:7 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Sim.Rng.int r 0))

let test_int_in () =
  let r = Sim.Rng.create ~seed:9 in
  let seen = Hashtbl.create 16 in
  for _ = 1 to 2000 do
    let x = Sim.Rng.int_in r (-3) 3 in
    check "in [-3,3]" true (x >= -3 && x <= 3);
    Hashtbl.replace seen x ()
  done;
  check_int "all 7 values hit" 7 (Hashtbl.length seen)

let test_float_range () =
  let r = Sim.Rng.create ~seed:5 in
  for _ = 1 to 1000 do
    let x = Sim.Rng.float r 2.5 in
    check "in [0,2.5)" true (x >= 0.0 && x < 2.5)
  done

let test_chance_extremes () =
  let r = Sim.Rng.create ~seed:3 in
  check "p=0 never" false (Sim.Rng.chance r 0.0);
  check "p=1 always" true (Sim.Rng.chance r 1.0);
  check "p<0 never" false (Sim.Rng.chance r (-0.5));
  check "p>1 always" true (Sim.Rng.chance r 1.5)

let test_pick () =
  let r = Sim.Rng.create ~seed:17 in
  for _ = 1 to 100 do
    check "member" true (List.mem (Sim.Rng.pick r [ 1; 5; 9 ]) [ 1; 5; 9 ])
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Rng.pick: empty list")
    (fun () -> ignore (Sim.Rng.pick r []))

let test_shuffle_permutation () =
  let r = Sim.Rng.create ~seed:19 in
  let original = List.init 20 Fun.id in
  for _ = 1 to 50 do
    let shuffled = Sim.Rng.shuffle r original in
    Alcotest.(check (list int)) "permutation" original (List.sort compare shuffled)
  done

let test_split_independence () =
  let parent = Sim.Rng.create ~seed:23 in
  let child1, child2 = Sim.Rng.split parent in
  let draws r = List.init 20 (fun _ -> Sim.Rng.int r 1_000_000) in
  check "siblings differ" true (draws child1 <> draws child2);
  (* successive splits of the same parent give fresh pairs *)
  let child3, child4 = Sim.Rng.split parent in
  check "later pair differs" true
    (draws child3 <> draws child1 && draws child4 <> draws child2)

let test_split_deterministic () =
  let mk side =
    let parent = Sim.Rng.create ~seed:29 in
    let l, r = Sim.Rng.split parent in
    let child = if side then l else r in
    List.init 20 (fun _ -> Sim.Rng.int child 1_000_000)
  in
  Alcotest.(check (list int)) "left reproducible" (mk true) (mk true);
  Alcotest.(check (list int)) "right reproducible" (mk false) (mk false)

(* The pinned vector: the exact first draws of both children of seed
   42, and of the first shards of split_n.  A change in the splitting
   scheme silently breaks every recorded parallel sweep, so it must
   fail a test, not a bench. *)
let test_split_pinned_vector () =
  let parent = Sim.Rng.create ~seed:42 in
  let l, r = Sim.Rng.split parent in
  let draws rng = List.init 4 (fun _ -> Sim.Rng.int rng 1_000_000_000) in
  Alcotest.(check (list int)) "left of seed 42"
    [ 876077779; 960309542; 712382976; 440715535 ] (draws l);
  Alcotest.(check (list int)) "right of seed 42"
    [ 344049586; 878469417; 892766639; 353039475 ] (draws r);
  let shards = Sim.Rng.split_n (Sim.Rng.create ~seed:42) 3 in
  Alcotest.(check (list (list int))) "shards of seed 42"
    [
      [ 493799088; 940225781; 371587767; 115140258 ];
      [ 554280011; 689232510; 247004858; 867663859 ];
      [ 508896023; 850034747; 295956254; 705096168 ];
    ]
    (Array.to_list (Array.map draws shards))

let test_split_n_placement_independent () =
  (* shard i must not depend on how many siblings were requested *)
  let shard ~of_ i =
    let rngs = Sim.Rng.split_n (Sim.Rng.create ~seed:31) of_ in
    List.init 16 (fun _ -> Sim.Rng.int rngs.(i) 1_000_000)
  in
  Alcotest.(check (list int)) "shard 2 of 4 = shard 2 of 16"
    (shard ~of_:4 2) (shard ~of_:16 2);
  Alcotest.(check (list int)) "shard 0 of 1 = shard 0 of 8"
    (shard ~of_:1 0) (shard ~of_:8 0);
  check "empty family fine" true (Sim.Rng.split_n (Sim.Rng.create ~seed:1) 0 = [||]);
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Rng.split_n: negative count") (fun () ->
      ignore (Sim.Rng.split_n (Sim.Rng.create ~seed:1) (-1)))

let test_split_nth_matches_split_n () =
  (* child i alone, and the parent's state after it, equal child i of
     any family larger than i *)
  let draws rng = List.init 16 (fun _ -> Sim.Rng.int rng 1_000_000_000) in
  List.iter
    (fun (seed, i, k) ->
      let p1 = Sim.Rng.create ~seed and p2 = Sim.Rng.create ~seed in
      let nth = Sim.Rng.split_nth p1 i in
      let family = Sim.Rng.split_n p2 k in
      let name = Printf.sprintf "seed %d child %d of %d" seed i k in
      Alcotest.(check (list int)) name (draws family.(i)) (draws nth);
      Alcotest.(check (list int)) (name ^ ": parent") (draws p2) (draws p1))
    [ (42, 0, 1); (42, 0, 3); (42, 2, 3); (31, 2, 16); (31, 15, 16); (7, 255, 256);
      (7, 3, 1000) ];
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Rng.split_nth: negative index") (fun () ->
      ignore (Sim.Rng.split_nth (Sim.Rng.create ~seed:1) (-1)))

(* Non-overlap of split streams: with 29-bit draws, any window of 4
   consecutive draws is a ~116-bit fingerprint, so two independent
   10^4-draw streams share a 4-window with probability ~ 10^8 * 2^-116
   — a spurious failure is impossible in practice, while a splitting
   bug that replays one stream inside the other is caught wherever the
   overlap starts. *)
let qcheck_split_streams_nonoverlapping =
  QCheck.Test.make ~name:"split streams pairwise non-overlapping (10^4 draws)"
    ~count:10
    QCheck.(small_int)
    (fun seed ->
      let l, r = Sim.Rng.split (Sim.Rng.create ~seed) in
      let n = 10_000 in
      let draws rng = Array.init n (fun _ -> Sim.Rng.int rng (1 lsl 29)) in
      let a = draws l and b = draws r in
      let windows = Hashtbl.create (2 * n) in
      for i = 0 to n - 4 do
        Hashtbl.replace windows (a.(i), a.(i + 1), a.(i + 2), a.(i + 3)) ()
      done;
      let overlap = ref false in
      for i = 0 to n - 4 do
        if Hashtbl.mem windows (b.(i), b.(i + 1), b.(i + 2), b.(i + 3)) then
          overlap := true
      done;
      not !overlap)

let qcheck_shuffle_preserves =
  QCheck.Test.make ~name:"shuffle preserves multiset" ~count:200
    QCheck.(pair small_int (small_list small_int))
    (fun (seed, xs) ->
      let r = Sim.Rng.create ~seed in
      List.sort compare (Sim.Rng.shuffle r xs) = List.sort compare xs)

let suite =
  [
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "different seeds" `Quick test_different_seeds;
    Alcotest.test_case "int range" `Quick test_int_range;
    Alcotest.test_case "int rejects nonpositive" `Quick test_int_rejects_nonpositive;
    Alcotest.test_case "int_in inclusive" `Quick test_int_in;
    Alcotest.test_case "float range" `Quick test_float_range;
    Alcotest.test_case "chance extremes" `Quick test_chance_extremes;
    Alcotest.test_case "pick" `Quick test_pick;
    Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
    Alcotest.test_case "split independence" `Quick test_split_independence;
    Alcotest.test_case "split deterministic" `Quick test_split_deterministic;
    Alcotest.test_case "split pinned vector" `Quick test_split_pinned_vector;
    Alcotest.test_case "split_n placement independent" `Quick
      test_split_n_placement_independent;
    Alcotest.test_case "split_nth matches split_n" `Quick
      test_split_nth_matches_split_n;
    QCheck_alcotest.to_alcotest qcheck_shuffle_preserves;
    QCheck_alcotest.to_alcotest qcheck_split_streams_nonoverlapping;
  ]
