(* Observation for the benchmark's traced run: a monotonic clock,
   aggregated spans recorded around calls into the library's layers,
   and GC pause time read back from the runtime's own event ring.

   Spans are aggregated per name in memory (count, total, parent) and
   printed once when the run ends; a broadcast op produces one handler
   span per NCU activation, so keeping every span would cost more than
   the op itself. *)

let now () = Monotonic_clock.now ()
let ns_since t0 = Int64.to_float (Int64.sub (now ()) t0)

type span = {
  name : string;
  parent : string;  (** the span this one runs inside, [""] at top level *)
  mutable count : int;
  mutable total_ns : float;
}

type t = { spans : (string, span) Hashtbl.t; mutable order : span list }

let create () = { spans = Hashtbl.create 16; order = [] }

(* [span t name ~parent] is the accumulator for [name]; fetch it once
   outside a hot loop and feed it with [stop]. *)
let span t ?(parent = "") name =
  match Hashtbl.find_opt t.spans name with
  | Some s -> s
  | None ->
      let s = { name; parent; count = 0; total_ns = 0. } in
      Hashtbl.replace t.spans name s;
      t.order <- s :: t.order;
      s

let stop s t0 =
  s.count <- s.count + 1;
  s.total_ns <- s.total_ns +. ns_since t0

let time s f =
  let t0 = now () in
  let r = f () in
  stop s t0;
  r

let total_ns t name =
  match Hashtbl.find_opt t.spans name with Some s -> s.total_ns | None -> 0.

(* Self time: a span's total minus the totals of the spans whose
   parent it is. *)
let pp ppf t =
  let spans = List.rev t.order in
  List.iter
    (fun s ->
      let children =
        List.fold_left
          (fun acc c -> if c.parent = s.name then acc +. c.total_ns else acc)
          0. spans
      in
      Format.fprintf ppf "span %-28s parent=%-16s count=%-8d total_ms=%.3f self_ms=%.3f@."
        s.name
        (if s.parent = "" then "-" else s.parent)
        s.count (s.total_ns *. 1e-6)
        ((s.total_ns -. children) *. 1e-6))
    spans

(* -- GC pauses, from the runtime event ring of this process ---------- *)

module Gc_time = struct
  type t = {
    cursor : Runtime_events.cursor;
    callbacks : Runtime_events.Callbacks.t;
    minor_ns : float ref;
    major_ns : float ref;
  }

  let start () =
    Runtime_events.start ();
    let ts = Runtime_events.Timestamp.to_int64 in
    let minor_begin = ref 0L and major_begin = ref 0L in
    let minor_ns = ref 0. and major_ns = ref 0. in
    let runtime_begin _ t = function
      | Runtime_events.EV_MINOR -> minor_begin := ts t
      | EV_MAJOR_SLICE -> major_begin := ts t
      | _ -> ()
    in
    let add acc b t = acc := !acc +. Int64.to_float (Int64.sub (ts t) !b) in
    let runtime_end _ t = function
      | Runtime_events.EV_MINOR -> add minor_ns minor_begin t
      | EV_MAJOR_SLICE -> add major_ns major_begin t
      | _ -> ()
    in
    {
      cursor = Runtime_events.create_cursor None;
      callbacks = Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ();
      minor_ns;
      major_ns;
    }

  (* Drain the ring; call at least once per op so it cannot wrap. *)
  let poll g = ignore (Runtime_events.read_poll g.cursor g.callbacks None : int)
end
