(* Geometric grid: [bins_per_decade] bins per decade of latency over
   [lo, hi), one exact-zero bin below and one overflow bin above.  Each
   bin keeps a count and a sum, so the quantile answer — the mean of
   the bin holding the nearest-rank sample — is exact whenever every
   sample in that bin is the same value (the deterministic cost-model
   case the bench gates rely on), and within one bin width otherwise. *)

let bins_per_decade = 32
let lo = 1e-9
let decades = 18 (* [1e-9, 1e9) *)
let nbins = bins_per_decade * decades
let hi = 1e9

(* zero bin + grid + overflow *)
let bins = nbins + 2
let zero_bin = 0
let overflow_bin = nbins + 1

type t = {
  counts : int array;
  sums : float array;
  mutable n : int;
  mutable total : float;
  mutable min_v : float;
  mutable max_v : float;
}

let create () =
  {
    counts = Array.make bins 0;
    sums = Array.make bins 0.0;
    n = 0;
    total = 0.0;
    min_v = infinity;
    max_v = neg_infinity;
  }

let log10_lo = log10 lo

let index_of v =
  if v = 0.0 then zero_bin
  else if v >= hi then overflow_bin
  else
    let i = int_of_float (floor ((log10 v -. log10_lo) *. float_of_int bins_per_decade)) in
    (* sub-[lo] samples clamp into the first grid bin; rounding at a
       decade boundary stays inside the grid *)
    1 + max 0 (min (nbins - 1) i)

let observe t v =
  if Float.is_nan v || v < 0.0 then
    invalid_arg "Histo.observe: samples must be non-negative";
  let b = index_of v in
  t.counts.(b) <- t.counts.(b) + 1;
  t.sums.(b) <- t.sums.(b) +. v;
  t.n <- t.n + 1;
  t.total <- t.total +. v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let count t = t.n
let total t = t.total
let mean t = if t.n = 0 then nan else t.total /. float_of_int t.n
let min_value t = if t.n = 0 then nan else t.min_v
let max_value t = if t.n = 0 then nan else t.max_v

let quantile t q =
  if Float.is_nan q || q < 0.0 || q > 1.0 then
    invalid_arg "Histo.quantile: q must be in [0, 1]";
  if t.n = 0 then nan
  else if q = 0.0 then t.min_v
  else if q = 1.0 then t.max_v
  else begin
    let rank = max 1 (int_of_float (ceil (q *. float_of_int t.n))) in
    let rec find b seen =
      let seen = seen + t.counts.(b) in
      if seen >= rank then t.sums.(b) /. float_of_int t.counts.(b)
      else find (b + 1) seen
    in
    find 0 0
  end
