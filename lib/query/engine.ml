(* One streaming fold serves both sources: [run_file] feeds parsed
   lines, [run_events] feeds an in-memory list; everything else is
   shared state updated one event at a time. *)

type kind = Hop | Syscall | Send | Receive | Drop | Link_change | Custom

let all_kinds = [ Hop; Syscall; Send; Receive; Drop; Link_change; Custom ]

let kind_of_event (e : Sim.Trace.event) =
  match e with
  | Sim.Trace.Hop _ -> Hop
  | Sim.Trace.Syscall _ -> Syscall
  | Sim.Trace.Send _ -> Send
  | Sim.Trace.Receive _ -> Receive
  | Sim.Trace.Drop _ -> Drop
  | Sim.Trace.Link_change _ -> Link_change
  | Sim.Trace.Custom _ -> Custom

let kind_name = function
  | Hop -> "hop"
  | Syscall -> "syscall"
  | Send -> "send"
  | Receive -> "receive"
  | Drop -> "drop"
  | Link_change -> "link_change"
  | Custom -> "custom"

let kind_of_string s =
  List.find_opt (fun k -> kind_name k = s) all_kinds

let kind_index k =
  let rec go i = function
    | [] -> assert false
    | x :: rest -> if x = k then i else go (i + 1) rest
  in
  go 0 all_kinds

type filter = {
  kinds : kind list;
  nodes : int list;
  link : (int * int) option;
  phase : string option;
  since : float option;
  until : float option;
}

let no_filter =
  { kinds = []; nodes = []; link = None; phase = None; since = None;
    until = None }

let label_of (e : Sim.Trace.event) =
  match e with
  | Sim.Trace.Syscall { label; _ }
  | Sim.Trace.Send { label; _ }
  | Sim.Trace.Receive { label; _ }
  | Sim.Trace.Custom { label; _ } ->
      Some label
  | Sim.Trace.Drop _ | Sim.Trace.Hop _ | Sim.Trace.Link_change _ -> None

let touches_node nodes (e : Sim.Trace.event) =
  let mem v = List.mem v nodes in
  match e with
  | Sim.Trace.Hop { src; dst; _ } -> mem src || mem dst
  | Sim.Trace.Syscall { node; _ }
  | Sim.Trace.Send { node; _ }
  | Sim.Trace.Receive { node; _ }
  | Sim.Trace.Drop { node; _ } ->
      mem node
  | Sim.Trace.Link_change { u; v; _ } -> mem u || mem v
  | Sim.Trace.Custom _ -> false

let matches f (e : Sim.Trace.event) =
  (f.kinds = [] || List.mem (kind_of_event e) f.kinds)
  && (f.nodes = [] || touches_node f.nodes e)
  && (match f.link with
     | None -> true
     | Some (u, v) -> (
         match e with
         | Sim.Trace.Hop { src; dst; _ } -> src = u && dst = v
         | Sim.Trace.Link_change { u = a; v = b; _ } -> a = u && b = v
         | _ -> false))
  && (match f.phase with
     | None -> true
     | Some p -> label_of e = Some p)
  && (match f.since with
     | None -> true
     | Some s -> Sim.Trace.time_of e >= s)
  && (match f.until with
     | None -> true
     | Some u -> Sim.Trace.time_of e <= u)

(* -- grouping ----------------------------------------------------------- *)

type group_by = By_kind | By_node | By_phase | By_link

let group_by_name = function
  | By_kind -> "kind"
  | By_node -> "node"
  | By_phase -> "phase"
  | By_link -> "link"

let group_by_of_string = function
  | "kind" -> Some By_kind
  | "node" -> Some By_node
  | "phase" -> Some By_phase
  | "link" -> Some By_link
  | _ -> None

(* group keys sort structurally (kinds by enumeration order, nodes and
   links numerically, phases lexically) so the report is deterministic *)
type gkey = Kk of int | Kn of int | Kl of int * int | Ks of string

type gstat = {
  mutable gs_count : int;
  mutable gs_min : float;
  mutable gs_max : float;
}

type group = {
  g_key : string;
  g_count : int;
  g_t_min : float;
  g_t_max : float;
}

(* the node an event is charged to: a hop to its destination (the
   critical-path convention), a link change to its initiator *)
let charged_node (e : Sim.Trace.event) =
  match e with
  | Sim.Trace.Hop { dst; _ } -> Some dst
  | Sim.Trace.Syscall { node; _ }
  | Sim.Trace.Send { node; _ }
  | Sim.Trace.Receive { node; _ }
  | Sim.Trace.Drop { node; _ } ->
      Some node
  | Sim.Trace.Link_change { u; _ } -> Some u
  | Sim.Trace.Custom _ -> None

type state = {
  filter : filter;
  group_by : group_by option;
  latency : Latency.t;
  mutable lines : int;
  mutable events : int;
  mutable matched : int;
  mutable header : (int * string * Sim.Trace_import.record) option;
  mutable truncated : (int * int * int) option;
  other : (string, int ref) Hashtbl.t;
  mutable t_min : float;
  mutable t_max : float;
  kind_counts : int array;
  groups : (gkey, gstat) Hashtbl.t;
  (* msg_id -> label, maintained only for phase grouping so hops can
     be attributed to the phase of the packet they carry *)
  send_labels : (int, string) Hashtbl.t;
}

type report = {
  source : string;
  header : (int * string * Sim.Trace_import.record) option;
  lines : int;
  events : int;
  matched : int;
  truncated : (int * int * int) option;
  other : (string * int) list;
  t_min : float;
  t_max : float;
  by_kind : (kind * int) list;
  groups : (group_by * group list) option;
  latency : Latency.t;
}

let fresh ?cost ?(filter = no_filter) ?group_by () =
  {
    filter;
    group_by;
    latency = Latency.create ?cost ();
    lines = 0;
    events = 0;
    matched = 0;
    header = None;
    truncated = None;
    other = Hashtbl.create 8;
    t_min = infinity;
    t_max = neg_infinity;
    kind_counts = Array.make (List.length all_kinds) 0;
    groups = Hashtbl.create 64;
    send_labels = Hashtbl.create 64;
  }

let group_key st (e : Sim.Trace.event) =
  match st.group_by with
  | None -> None
  | Some By_kind -> Some (Kk (kind_index (kind_of_event e)))
  | Some By_node -> Option.map (fun n -> Kn n) (charged_node e)
  | Some By_link -> (
      match e with
      | Sim.Trace.Hop { src; dst; _ } -> Some (Kl (src, dst))
      | Sim.Trace.Link_change { u; v; _ } -> Some (Kl (u, v))
      | _ -> None)
  | Some By_phase -> (
      match e with
      | Sim.Trace.Hop { msg_id; _ } ->
          Some
            (Ks
               (match Hashtbl.find_opt st.send_labels msg_id with
               | Some l -> l
               | None -> ""))
      | _ -> Option.map (fun l -> Ks l) (label_of e))

let feed_event (st : state) (e : Sim.Trace.event) =
  st.events <- st.events + 1;
  (match (st.group_by, e) with
  | Some By_phase, Sim.Trace.Send { msg_id; label; _ } ->
      Hashtbl.replace st.send_labels msg_id label
  | _ -> ());
  if matches st.filter e then begin
    st.matched <- st.matched + 1;
    let t = Sim.Trace.time_of e in
    if t < st.t_min then st.t_min <- t;
    if t > st.t_max then st.t_max <- t;
    let ki = kind_index (kind_of_event e) in
    st.kind_counts.(ki) <- st.kind_counts.(ki) + 1;
    (match group_key st e with
    | None -> ()
    | Some key -> (
        match Hashtbl.find_opt st.groups key with
        | Some g ->
            g.gs_count <- g.gs_count + 1;
            if t < g.gs_min then g.gs_min <- t;
            if t > g.gs_max then g.gs_max <- t
        | None ->
            Hashtbl.replace st.groups key
              { gs_count = 1; gs_min = t; gs_max = t }));
    Latency.observe st.latency e
  end

let feed_line (st : state) (l : Sim.Trace_import.line) =
  st.lines <- st.lines + 1;
  match l with
  | Sim.Trace_import.Event e -> feed_event st e
  | Sim.Trace_import.Header { schema_version; kind; fields } ->
      if st.header = None then st.header <- Some (schema_version, kind, fields)
  | Sim.Trace_import.Truncated { dropped; dropped_ring; dropped_sink; _ } ->
      st.truncated <- Some (dropped, dropped_ring, dropped_sink)
  | Sim.Trace_import.Other { kind; _ } -> (
      match Hashtbl.find_opt st.other kind with
      | Some r -> incr r
      | None -> Hashtbl.replace st.other kind (ref 1))

let gkey_string = function
  | Kk i -> kind_name (List.nth all_kinds i)
  | Kn n -> string_of_int n
  | Kl (u, v) -> Printf.sprintf "%d->%d" u v
  | Ks "" -> "(none)"
  | Ks s -> s

let finish ~source (st : state) : report =
  let other =
    List.sort compare
      (Hashtbl.fold (fun k r acc -> (k, !r) :: acc) st.other [])
  in
  let by_kind =
    List.filter_map
      (fun k ->
        let c = st.kind_counts.(kind_index k) in
        if c = 0 then None else Some (k, c))
      all_kinds
  in
  let groups =
    match st.group_by with
    | None -> None
    | Some gb ->
        let rows =
          List.sort
            (fun (k1, _) (k2, _) -> compare k1 k2)
            (Hashtbl.fold (fun k g acc -> (k, g) :: acc) st.groups [])
        in
        Some
          ( gb,
            List.map
              (fun (k, g) ->
                {
                  g_key = gkey_string k;
                  g_count = g.gs_count;
                  g_t_min = g.gs_min;
                  g_t_max = g.gs_max;
                })
              rows )
  in
  {
    source;
    header = st.header;
    lines = st.lines;
    events = st.events;
    matched = st.matched;
    truncated = st.truncated;
    other;
    t_min = (if st.matched = 0 then nan else st.t_min);
    t_max = (if st.matched = 0 then nan else st.t_max);
    by_kind;
    groups;
    latency = st.latency;
  }

let run_events ?cost ?filter ?group_by ~source events =
  let st = fresh ?cost ?filter ?group_by () in
  List.iter (feed_event st) events;
  st.lines <- st.events;
  finish ~source st

let run_file ?cost ?filter ?group_by path =
  let st = fresh ?cost ?filter ?group_by () in
  Result.map
    (fun () -> finish ~source:path st)
    (Sim.Trace_import.fold_file path ~init:() ~f:(fun () ~lineno:_ l ->
         feed_line st l))

(* -- rendering ---------------------------------------------------------- *)

let pp ppf r =
  Format.fprintf ppf "%s: %d lines, %d events, %d matched@." r.source r.lines
    r.events r.matched;
  (match r.header with
  | Some (sv, kind, fields) ->
      Format.fprintf ppf "  header: schema v%d, kind %S%s@." sv kind
        (match fields with
        | [] -> ""
        | fs ->
            ", "
            ^ String.concat ", "
                (List.map
                   (fun (k, v) ->
                     Printf.sprintf "%s=%s" k
                       (match v with
                       | Sim.Json.Str s -> s
                       | Sim.Json.Num f -> Printf.sprintf "%g" f
                       | v -> Sim.Json.render v))
                   fs))
  | None -> Format.fprintf ppf "  header: none (bare event stream)@.");
  (match r.truncated with
  | Some (d, ring, sink) ->
      Format.fprintf ppf
        "  TRUNCATED: %d events lost (%d ring evictions, %d sink refusals) — \
         aggregates below are incomplete@."
        d ring sink
  | None -> ());
  List.iter
    (fun (k, c) -> Format.fprintf ppf "  other records: %s x%d@." k c)
    r.other;
  if r.matched > 0 then
    Format.fprintf ppf "  time window: [%g, %g]@." r.t_min r.t_max;
  List.iter
    (fun (k, c) -> Format.fprintf ppf "  %-12s %d@." (kind_name k) c)
    r.by_kind;
  (match r.groups with
  | None -> ()
  | Some (gb, rows) ->
      Format.fprintf ppf "  by %s:@." (group_by_name gb);
      List.iter
        (fun g ->
          Format.fprintf ppf "    %-16s count %-8d window [%g, %g]@." g.g_key
            g.g_count g.g_t_min g.g_t_max)
        rows);
  Latency.pp ppf r.latency

let json_float f = Printf.sprintf "%.12g" (if Float.is_nan f then 0.0 else f)

let to_json r =
  let header =
    match r.header with
    | None -> "null"
    | Some (sv, kind, _) ->
        Printf.sprintf "{\"schema_version\":%d,\"kind\":%s}" sv
          (Sim.Json.string kind)
  in
  let truncated =
    match r.truncated with
    | None -> "null"
    | Some (d, ring, sink) ->
        Printf.sprintf
          "{\"dropped\":%d,\"dropped_ring\":%d,\"dropped_sink\":%d}" d ring
          sink
  in
  let kinds =
    String.concat ","
      (List.map
         (fun (k, c) ->
           Printf.sprintf "{\"kind\":%s,\"count\":%d}"
             (Sim.Json.string (kind_name k)) c)
         r.by_kind)
  in
  let other =
    String.concat ","
      (List.map
         (fun (k, c) ->
           Printf.sprintf "{\"record\":%s,\"count\":%d}" (Sim.Json.string k) c)
         r.other)
  in
  let groups =
    match r.groups with
    | None -> "null"
    | Some (gb, rows) ->
        Printf.sprintf "{\"by\":%s,\"rows\":[%s]}"
          (Sim.Json.string (group_by_name gb))
          (String.concat ","
             (List.map
                (fun g ->
                  Printf.sprintf
                    "{\"key\":%s,\"count\":%d,\"t_min\":%s,\"t_max\":%s}"
                    (Sim.Json.string g.g_key) g.g_count (json_float g.g_t_min)
                    (json_float g.g_t_max))
                rows))
  in
  Printf.sprintf
    "{\"source\":%s,\"header\":%s,\"lines\":%d,\"events\":%d,\"matched\":%d,\
     \"truncated\":%s,\"t_min\":%s,\"t_max\":%s,\"kinds\":[%s],\
     \"other\":[%s],\"groups\":%s,\"latency\":%s}"
    (Sim.Json.string r.source) header r.lines r.events r.matched truncated
    (json_float r.t_min) (json_float r.t_max) kinds other groups
    (Latency.to_json r.latency)
