type t = Random.State.t

let create ~seed = Random.State.make [| seed; 0x6675_7475; 0x726e_6574 |]

let split t =
  (* Derive both children from the same two fresh draws, separated by
     distinct domain tags, so that siblings are independent of each
     other and of the parent's subsequent stream.  The construction is
     a pure function of the parent's state at the split: where a child
     is later consumed (which domain, which order) cannot change its
     stream. *)
  let a = Random.State.bits t and b = Random.State.bits t in
  ( Random.State.make [| a; b; 0x73706c69 |],
    Random.State.make [| a; b; 0x74746572 |] )

(* One pair of draws keys the whole family; child [i] is seeded by
   (draws, i), so replica [i]'s stream is identical no matter how many
   siblings exist or on which worker it runs. *)
let child a b i = Random.State.make [| a; b; i; 0x73686172 |]

let split_n t n =
  if n < 0 then invalid_arg "Rng.split_n: negative count";
  let a = Random.State.bits t and b = Random.State.bits t in
  Array.init n (child a b)

let split_nth t i =
  if i < 0 then invalid_arg "Rng.split_nth: negative index";
  let a = Random.State.bits t and b = Random.State.bits t in
  child a b i

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  Random.State.int t bound

let int_in t lo hi =
  if lo > hi then invalid_arg "Rng.int_in: lo > hi";
  lo + Random.State.int t (hi - lo + 1)

let float t bound = Random.State.float t bound

let bool t = Random.State.bool t

let chance t p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else Random.State.float t 1.0 < p

let pick_array t xs =
  if Array.length xs = 0 then invalid_arg "Rng.pick_array: empty array";
  xs.(Random.State.int t (Array.length xs))

let pick t xs =
  match xs with
  | [] -> invalid_arg "Rng.pick: empty list"
  | _ -> pick_array t (Array.of_list xs)

let shuffle_array_in_place t xs =
  for i = Array.length xs - 1 downto 1 do
    let j = Random.State.int t (i + 1) in
    let tmp = xs.(i) in
    xs.(i) <- xs.(j);
    xs.(j) <- tmp
  done

let shuffle t xs =
  let a = Array.of_list xs in
  shuffle_array_in_place t a;
  Array.to_list a
