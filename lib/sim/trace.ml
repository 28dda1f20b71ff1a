type event =
  | Hop of { src : int; dst : int; time : float; msg_id : int }
  | Syscall of { node : int; time : float; label : string }
  | Send of { node : int; time : float; msg_id : int; label : string }
  | Receive of { node : int; time : float; msg_id : int; label : string }
  | Drop of { node : int; time : float; reason : string }
  | Link_change of { u : int; v : int; up : bool; time : float }
  | Custom of { time : float; label : string }

type t = {
  mutable items : event list;  (* newest first *)
  mutable count : int;
  mutable recorded : int;  (* all-time offers, surviving trims *)
  mutable sink_dropped : int;  (* offers the consumer refused *)
  capacity : int option;
  enabled : bool;
  keep : bool;  (* retain events in the ring *)
  consumer : (event -> bool) option;
}

let create ?capacity () =
  {
    items = [];
    count = 0;
    recorded = 0;
    sink_dropped = 0;
    capacity;
    enabled = true;
    keep = true;
    consumer = None;
  }

let disabled () =
  {
    items = [];
    count = 0;
    recorded = 0;
    sink_dropped = 0;
    capacity = None;
    enabled = false;
    keep = false;
    consumer = None;
  }

let streaming ?(keep = false) ~consumer () =
  {
    items = [];
    count = 0;
    recorded = 0;
    sink_dropped = 0;
    capacity = None;
    enabled = true;
    keep;
    consumer = Some consumer;
  }

let enabled t = t.enabled

let record t e =
  if t.enabled then begin
    t.recorded <- t.recorded + 1;
    (match t.consumer with
    | Some consume -> if not (consume e) then
        t.sink_dropped <- t.sink_dropped + 1
    | None -> ());
    if t.keep then begin
      t.items <- e :: t.items;
      t.count <- t.count + 1;
      match t.capacity with
      | Some cap when t.count > cap ->
          (* Trim lazily: drop the oldest half when 2x over capacity to
             keep amortised cost constant. *)
          if t.count > 2 * cap then begin
            t.items <- List.filteri (fun i _ -> i < cap) t.items;
            t.count <- cap
          end
      | _ -> ()
    end
  end

let events t =
  let all = List.rev t.items in
  match t.capacity with
  | Some cap when t.count > cap ->
      let excess = t.count - cap in
      List.filteri (fun i _ -> i >= excess) all
  | _ -> all

let length t =
  match t.capacity with Some cap -> min cap t.count | None -> t.count

let recorded t = t.recorded

(* A keep=false streaming trace retains nothing by design; only a
   retaining ring counts evictions. *)
let dropped_ring t = if t.keep then t.recorded - length t else 0
let dropped_sink t = t.sink_dropped
let dropped t = dropped_ring t + dropped_sink t

let time_of = function
  | Hop { time; _ }
  | Syscall { time; _ }
  | Send { time; _ }
  | Receive { time; _ }
  | Drop { time; _ }
  | Link_change { time; _ }
  | Custom { time; _ } ->
      time

let pp_event ppf = function
  | Hop { src; dst; time; msg_id } ->
      Format.fprintf ppf "[%8.3f] hop %d->%d #%d" time src dst msg_id
  | Syscall { node; time; label } ->
      Format.fprintf ppf "[%8.3f] syscall @%d %s" time node label
  | Send { node; time; msg_id; label } ->
      Format.fprintf ppf "[%8.3f] send @%d #%d %s" time node msg_id label
  | Receive { node; time; msg_id; label } ->
      Format.fprintf ppf "[%8.3f] recv @%d #%d %s" time node msg_id label
  | Drop { node; time; reason } ->
      Format.fprintf ppf "[%8.3f] drop @%d (%s)" time node reason
  | Link_change { u; v; up; time } ->
      Format.fprintf ppf "[%8.3f] link %d-%d %s" time u v
        (if up then "up" else "down")
  | Custom { time; label } -> Format.fprintf ppf "[%8.3f] %s" time label
