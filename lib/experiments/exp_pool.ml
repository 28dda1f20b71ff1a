(* The experiment harness's job knob.

   Tables must come out byte-identical whatever the job count, so the
   only thing the harness ever parallelises is the *computation* of row
   data: [map] fans the per-row work over a pool (results in submission
   order, per Pool's contract) and the caller adds rows sequentially
   afterwards.  Any randomness inside the mapped work must come from a
   per-item pre-split rng (Sim.Rng.split_n), never from a shared
   stream — a shared stream's draw order would depend on the
   schedule. *)

let jobs_ref = ref 1
let set_jobs j = jobs_ref := max 1 j

let map f xs =
  if !jobs_ref <= 1 then List.map f xs
  else
    Parallel.Pool.with_pool ~jobs:!jobs_ref (fun pool ->
        Parallel.Pool.map_list pool f xs)
