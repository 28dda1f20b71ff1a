type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
  p90 : float;
}

let mean xs =
  match xs with
  | [] -> invalid_arg "Stats.mean: empty list"
  | _ ->
      let n = float_of_int (List.length xs) in
      List.fold_left ( +. ) 0.0 xs /. n

let stddev xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
      let m = mean xs in
      let n = float_of_int (List.length xs) in
      let ss = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
      sqrt (ss /. (n -. 1.0))

let percentile q xs =
  match xs with
  | [] -> invalid_arg "Stats.percentile: empty list"
  | _ ->
      if q < 0.0 || q > 100.0 then
        invalid_arg "Stats.percentile: q out of [0,100]";
      let sorted = List.sort Float.compare xs in
      let arr = Array.of_list sorted in
      let n = Array.length arr in
      (* nearest-rank definition *)
      let rank = int_of_float (ceil (q /. 100.0 *. float_of_int n)) in
      let idx = if rank <= 0 then 0 else min (n - 1) (rank - 1) in
      arr.(idx)

let summarize xs =
  match xs with
  | [] -> invalid_arg "Stats.summarize: empty list"
  | _ ->
      let sorted = List.sort Float.compare xs in
      let arr = Array.of_list sorted in
      let n = Array.length arr in
      {
        count = n;
        mean = mean xs;
        stddev = stddev xs;
        min = arr.(0);
        max = arr.(n - 1);
        median = percentile 50.0 xs;
        p90 = percentile 90.0 xs;
      }

let log2 x = log x /. log 2.0
