(* A fixed reference kernel, timed just before every timed op.

   The host runs other tenants' work beside this process and slows it
   by up to 1.5x, for stretches from milliseconds to a whole run.  A
   slowdown stretches the kernel and the op that follows it alike, so
   the ratio of the two holds still where either time alone does not.
   The kernel uses nothing from the library, so a change to the
   library cannot move it; it does the kind of work the simulator
   does (hashing, bucket walks, dependent loads from a 512 KiB array
   that stays in the core's L2) and allocates nothing, so that it
   never runs a collection on the op's behalf. *)

(* About what [run] takes on a 2.1 GHz Xeon vCPU shared with other
   tenants (a p50 of 1.0 to 1.2 ms there): the host speed at which
   [setup_s] is given in seconds. *)
let nominal_s = 1e-3

let slots = 8192
let table = Hashtbl.create slots
let () = for k = 0 to slots - 1 do Hashtbl.replace table k 0 done
let chain = Array.init 65536 (fun i -> (i * 7919) land 65535)

(* Every key is already bound, so [Hashtbl.replace] updates in place. *)
let run () =
  let j = ref 0 and acc = ref 0 in
  for i = 0 to 10_000 do
    j := chain.(!j) lxor (i land 255);
    Hashtbl.replace table (!j land (slots - 1)) i;
    acc := !acc + Hashtbl.find table ((!j + i) land (slots - 1))
  done;
  ignore (Sys.opaque_identity !acc : int)
