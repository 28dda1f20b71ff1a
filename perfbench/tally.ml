(* The tally of checked ops: every op's outcome is checked, and every
   repeat of an input must reproduce the simulated costs of its first
   execution exactly. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  first : (int, int * float) Hashtbl.t;
      (** input -> simulated (syscalls, time) of its first execution *)
  mutable drift : string option;
}

let create () = { attempted = 0; failed = 0; first = Hashtbl.create 64; drift = None }

let record t input (o : Workloads.outcome) =
  t.attempted <- t.attempted + 1;
  if not o.ok then t.failed <- t.failed + 1;
  match Hashtbl.find_opt t.first input with
  | None -> Hashtbl.replace t.first input (o.syscalls, o.time)
  | Some (s, tm) ->
      if (s, tm) <> (o.syscalls, o.time) && t.drift = None then
        t.drift <-
          Some
            (Printf.sprintf "input %d: simulated cost moved from (%d, %g) to (%d, %g)"
               input s tm o.syscalls o.time)

(* Mean of the exact per-input costs, each input counted once. *)
let sim_means t =
  let k = float_of_int (Hashtbl.length t.first) in
  let s, tm = Hashtbl.fold (fun _ (s, tm) (a, b) -> (a +. float_of_int s, b +. tm)) t.first (0., 0.) in
  (s /. k, tm /. k)
