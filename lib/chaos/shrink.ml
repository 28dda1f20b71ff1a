(* Split [xs] into [k] contiguous chunks of near-equal length. *)
let chunks_of xs k =
  let len = List.length xs in
  let base = len / k and extra = len mod k in
  let rec take n xs =
    if n = 0 then ([], xs)
    else
      match xs with
      | [] -> ([], [])
      | x :: rest ->
          let taken, rem = take (n - 1) rest in
          (x :: taken, rem)
  in
  let rec go i xs =
    if i >= k then []
    else
      let size = base + if i < extra then 1 else 0 in
      let chunk, rest = take size xs in
      chunk :: go (i + 1) rest
  in
  go 0 xs

let ddmin still_fails xs =
  if still_fails [] then []
  else
    let rec go xs k =
      let len = List.length xs in
      if len <= 1 then xs
      else
        let k = Stdlib.min k len in
        let chunks = chunks_of xs k in
        (* try dropping one chunk at a time (complement test) *)
        let rec try_drop i =
          if i >= k then None
          else
            let candidate =
              List.concat (List.filteri (fun j _ -> j <> i) chunks)
            in
            if still_fails candidate then Some candidate else try_drop (i + 1)
        in
        match try_drop 0 with
        | Some smaller -> go smaller (Stdlib.max 2 (k - 1))
        | None ->
            if k >= len then xs (* 1-minimal: every single drop re-passes *)
            else go xs (Stdlib.min len (2 * k))
    in
    go xs 2

let with_time fault at =
  match fault with
  | Hardware.Fault_plan.Link_set l -> Hardware.Fault_plan.Link_set { l with at }
  | Node_set n -> Node_set { n with at }
  | Drop_in_flight d -> Drop_in_flight { d with at }

(* One sweep over the fault list, committing any time replacement that
   keeps the failure; repeated until a fixpoint (bounded — times only
   ever decrease). *)
let shrink_times ~still_fails (s : Schedule.t) =
  let try_fault s i =
    let at = Hardware.Fault_plan.time_of (List.nth s.Schedule.faults i) in
    let candidates =
      List.filter (fun c -> c < at) [ 0.0; Float.floor at; at /. 2.0 ]
    in
    List.fold_left
      (fun s candidate ->
        let faults =
          List.mapi
            (fun j f -> if j = i then with_time f candidate else f)
            s.Schedule.faults
        in
        let shrunk = { s with Schedule.faults } in
        if still_fails shrunk then shrunk else s)
      s candidates
  in
  let rec fix s rounds =
    if rounds = 0 then s
    else
      let len = List.length s.Schedule.faults in
      let s' = List.fold_left try_fault s (List.init len Fun.id) in
      if Schedule.equal s' s then s else fix s' (rounds - 1)
  in
  fix s 3

let minimize ~still_fails s =
  (* never commit (or persist) an ill-formed candidate: dropping a
     crash but keeping its recover, or shrinking a recover's time below
     its crash, would produce schedules {!Schedule.of_json} rejects.
     Nothing else {!Schedule.well_formed} checks can change here: the
     header and the fault fields stay, and a time only moves to 0, its
     floor or its half. *)
  let still_fails c =
    Schedule.recoveries_ordered c.Schedule.faults = Ok () && still_fails c
  in
  let s =
    let no_jitter = { s with Schedule.jitter = 0.0 } in
    if s.Schedule.jitter > 0.0 && still_fails no_jitter then no_jitter else s
  in
  let faults =
    ddmin
      (fun faults -> still_fails { s with Schedule.faults })
      s.Schedule.faults
  in
  let s = { s with Schedule.faults } in
  shrink_times ~still_fails s
