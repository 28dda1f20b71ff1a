type mode = Off | Warn | Fail
type report = { monitor : string; ok : bool; detail : string }

exception Violation of report list

let log2 x = log x /. log 2.0

let theorem2_broadcast ?(p = 1.0) ~n ~syscalls ~time () =
  let bound = (2.0 +. log2 (float_of_int n)) *. p in
  let syscalls_ok = syscalls = n in
  let time_ok = time <= bound +. 1e-9 in
  {
    monitor = "theorem2";
    ok = syscalls_ok && time_ok;
    detail =
      Printf.sprintf
        "n=%d: syscalls %d (want exactly %d), time %g (want <= %g = (2 + log2 n)*P)"
        n syscalls n time bound;
  }

let election_budget ~n ~election_syscalls =
  {
    monitor = "election-6n";
    ok = election_syscalls <= 6 * n;
    detail =
      Printf.sprintf "n=%d: election syscalls %d (Theorem 5 bound %d)" n
        election_syscalls (6 * n);
  }

let dmax_ceiling ~dmax ~max_header =
  {
    monitor = "dmax";
    ok = max_header <= dmax;
    detail =
      Printf.sprintf "max header %d elements (dmax %d)" max_header dmax;
  }

module Fifo = struct
  (* One clock per directed link, in an open-addressing table keyed by
     the link's endpoints packed into one int: [keys.(i) < 0] marks a
     free slot, [clocks.(i)] is the last hop time on [keys.(i)].  No
     tuple is allocated or hashed, and a clock update allocates
     nothing.  Linear probing; the table doubles past half full, so one
     created for the links it will see never grows. *)
  type t = {
    mutable keys : int array;
    mutable clocks : float array;
    mutable links : int;
    mutable violation : string option;
  }

  let create ?(links = 32) () =
    let rec size s = if s >= 2 * links then s else size (2 * s) in
    let slots = size 64 in
    {
      keys = Array.make slots (-1);
      clocks = Array.make slots 0.0;
      links = 0;
      violation = None;
    }

  let node_limit = 1 lsl 30

  (* top-level rather than a closure inside [slot], so a lookup
     allocates nothing *)
  let rec probe keys mask key i =
    let k = keys.(i) in
    if k = key || k < 0 then i else probe keys mask key ((i + 1) land mask)

  let slot keys key =
    let mask = Array.length keys - 1 in
    probe keys mask key (((key * 0x9E3779B97F4A7C1) lsr 32) land mask)

  let grow t =
    let keys = t.keys and clocks = t.clocks in
    t.keys <- Array.make (2 * Array.length keys) (-1);
    t.clocks <- Array.make (2 * Array.length keys) 0.0;
    Array.iteri
      (fun i key ->
        if key >= 0 then begin
          let j = slot t.keys key in
          t.keys.(j) <- key;
          t.clocks.(j) <- clocks.(i)
        end)
      keys

  (* Hop completions per directed link must be chronological in
     recording order; the trace is already chronological overall, so
     one clock per link suffices.  Checking stops at the first
     violation, which is the one reported. *)
  let observe t event =
    match (event, t.violation) with
    | Sim.Trace.Hop { src; dst; time; _ }, None ->
        if src < 0 || src >= node_limit || dst < 0 || dst >= node_limit then
          invalid_arg
            (Printf.sprintf "Monitor.Fifo: hop %d->%d outside [0, 2^30)" src
               dst);
        let key = (src lsl 30) lor dst in
        let i = slot t.keys key in
        if t.keys.(i) < 0 then begin
          t.keys.(i) <- key;
          t.clocks.(i) <- time;
          t.links <- t.links + 1;
          if 2 * t.links > Array.length t.keys then grow t
        end
        else if time < t.clocks.(i) then
          t.violation <-
            Some
              (Printf.sprintf "link %d->%d: hop at %g completed after one at %g"
                 src dst time t.clocks.(i))
        else t.clocks.(i) <- time
    | _ -> ()

  let report t =
    {
      monitor = "fifo-per-link";
      ok = t.violation = None;
      detail =
        (match t.violation with
        | None ->
            Printf.sprintf "hop order FIFO on all %d directed links" t.links
        | Some v -> v);
    }
end

let one_way_delivery ~n ~syscalls =
  {
    monitor = "one-way";
    ok = syscalls <= n;
    detail =
      Printf.sprintf "n=%d: %d syscalls (a one-way broadcast makes <= n)" n
        syscalls;
  }

let pp_report ppf r =
  Format.fprintf ppf "[%s] %s: %s"
    (if r.ok then "ok" else "VIOLATION")
    r.monitor r.detail

let enforce ?(out = Format.err_formatter) mode reports =
  let failed = List.filter (fun r -> not r.ok) reports in
  (match mode with
  | Off -> ()
  | Warn ->
      List.iter (fun r -> Format.fprintf out "monitor %a@." pp_report r) failed
  | Fail -> if failed <> [] then raise (Violation failed));
  failed
