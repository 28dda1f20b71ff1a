(* Serialisation is Printf around {!Json}'s writers: the event
   vocabulary is tiny and the output must be byte-stable for golden
   tests.  Field order is fixed; floats go through {!Json.float}. *)

(* Bumped whenever the JSONL record vocabulary changes
   incompatibly.  2: streamed headers + split dropped_ring /
   dropped_sink truncation accounting. *)
let schema_version = 2

(* -- JSONL ------------------------------------------------------------ *)

let jsonl_of_event (e : Trace.event) =
  match e with
  | Trace.Hop { src; dst; time; msg_id } ->
      Printf.sprintf {|{"type":"hop","time":%s,"src":%d,"dst":%d,"msg_id":%d}|}
        (Json.float time) src dst msg_id
  | Trace.Syscall { node; time; label } ->
      Printf.sprintf {|{"type":"syscall","time":%s,"node":%d,"label":%s}|}
        (Json.float time) node (Json.string label)
  | Trace.Send { node; time; msg_id; label } ->
      Printf.sprintf
        {|{"type":"send","time":%s,"node":%d,"msg_id":%d,"label":%s}|}
        (Json.float time) node msg_id (Json.string label)
  | Trace.Receive { node; time; msg_id; label } ->
      Printf.sprintf
        {|{"type":"receive","time":%s,"node":%d,"msg_id":%d,"label":%s}|}
        (Json.float time) node msg_id (Json.string label)
  | Trace.Drop { node; time; reason } ->
      Printf.sprintf {|{"type":"drop","time":%s,"node":%d,"reason":%s}|}
        (Json.float time) node (Json.string reason)
  | Trace.Link_change { u; v; up; time } ->
      Printf.sprintf {|{"type":"link_change","time":%s,"u":%d,"v":%d,"up":%b}|}
        (Json.float time) u v up
  | Trace.Custom { time; label } ->
      Printf.sprintf {|{"type":"custom","time":%s,"label":%s}|}
        (Json.float time) (Json.string label)

(* A bounded recorder that overflowed lost its oldest events; an export
   that silently looked complete would poison any analysis (profiles,
   causal trees) computed from it, so truncation leads the output. *)
let truncation_time t =
  match Trace.events t with e :: _ -> Trace.time_of e | [] -> 0.0

(* Ring evictions and sink refusals are different failure modes (the
   former loses the oldest prefix, the latter the newest suffix), so
   the record carries both alongside the total. *)
let truncation_record ~time t =
  Printf.sprintf
    {|{"type":"truncated","time":%s,"dropped":%d,"dropped_ring":%d,"dropped_sink":%d}|}
    (Json.float time) (Trace.dropped t) (Trace.dropped_ring t)
    (Trace.dropped_sink t)

let to_jsonl buf t =
  if Trace.dropped t > 0 then begin
    Buffer.add_string buf (truncation_record ~time:(truncation_time t) t);
    Buffer.add_char buf '\n'
  end;
  List.iter
    (fun e ->
      Buffer.add_string buf (jsonl_of_event e);
      Buffer.add_char buf '\n')
    (Trace.events t)

let jsonl t =
  let buf = Buffer.create 4096 in
  to_jsonl buf t;
  Buffer.contents buf

(* -- Streaming -------------------------------------------------------- *)

let stream_header ?(kind = "trace") ?(fields = []) () =
  let extra =
    String.concat ""
      (List.map (fun (k, v) -> Printf.sprintf ",\"%s\":%s" k v) fields)
  in
  Printf.sprintf {|{"type":"header","schema_version":%d,"kind":%s%s}|}
    schema_version (Json.string kind) extra

let event_consumer sink e = Sink.emit sink (jsonl_of_event e)

let stream_trace ?keep ?capacity sink =
  Trace.streaming ?keep ?capacity ~consumer:(event_consumer sink) ()

(* The leading-record trick of [to_jsonl] is impossible when lines
   have already left the process, so a streamed export announces loss
   in a trailing record instead; consumers treat a final "truncated"
   record exactly like a leading one. *)
let stream_finish ?(time = 0.0) sink t =
  if Trace.dropped t > 0 then
    ignore (Sink.emit sink (truncation_record ~time t));
  Sink.flush sink

(* -- Chrome trace_event ----------------------------------------------- *)

(* One simulated time unit = 1000 Chrome microseconds. *)
let ts time = Json.float (time *. 1000.0)

let span_name label = if label = "" then "msg" else label

let to_chrome ?(process_name = "futurenet") ?(decorate = fun _ -> "") buf t =
  let events = Trace.events t in
  (* Every node mentioned anywhere gets a named track. *)
  let nodes = Hashtbl.create 64 in
  let mention v = if not (Hashtbl.mem nodes v) then Hashtbl.replace nodes v () in
  List.iter
    (fun (e : Trace.event) ->
      match e with
      | Trace.Hop { src; dst; _ } ->
          mention src;
          mention dst
      | Trace.Syscall { node; _ }
      | Trace.Send { node; _ }
      | Trace.Receive { node; _ }
      | Trace.Drop { node; _ } ->
          mention node
      | Trace.Link_change { u; v; _ } ->
          mention u;
          mention v
      | Trace.Custom _ -> ())
    events;
  let node_list = List.sort compare (Hashtbl.fold (fun v () acc -> v :: acc) nodes []) in
  (* Send events indexed by msg_id, so each Receive can be turned into
     a span.  A copy route delivers one msg_id several times, so every
     (send, receive) pair gets its own async id. *)
  let sends = Hashtbl.create 64 in
  List.iter
    (fun (e : Trace.event) ->
      match e with
      | Trace.Send { node; time; msg_id; label } ->
          if not (Hashtbl.mem sends msg_id) then
            Hashtbl.replace sends msg_id (node, time, label)
      | _ -> ())
    events;
  let first = ref true in
  let emit obj =
    if !first then first := false else Buffer.add_string buf ",\n";
    Buffer.add_string buf "    ";
    Buffer.add_string buf obj
  in
  Buffer.add_string buf "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n";
  emit
    (Printf.sprintf
       {|{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":%s}}|}
       (Json.string process_name));
  List.iter
    (fun v ->
      emit
        (Printf.sprintf
           {|{"name":"thread_name","ph":"M","pid":0,"tid":%d,"args":{"name":"node %d"}}|}
           v v))
    node_list;
  (if Trace.dropped t > 0 then
     emit
       (Printf.sprintf
          {|{"name":"trace truncated (%d events dropped)","ph":"i","s":"g","cat":"warning","pid":0,"tid":0,"ts":%s}|}
          (Trace.dropped t)
          (ts (truncation_time t))));
  let next_span = ref 0 in
  (* [emit_d i base] closes [base] (an object missing its final brace)
     with the caller's decoration for chronological event [i] — how the
     profiler paints critical-path events without this module knowing
     what a critical path is. *)
  let emit_d i base = emit (base ^ decorate i ^ "}") in
  List.iteri
    (fun i (e : Trace.event) ->
      match e with
      | Trace.Hop { src; dst; time; msg_id } ->
          emit_d i
            (Printf.sprintf
               {|{"name":"hop","ph":"i","s":"t","cat":"hw","pid":0,"tid":%d,"ts":%s,"args":{"dst":%d,"msg_id":%d}|}
               src (ts time) dst msg_id)
      | Trace.Syscall { node; time; label } ->
          emit_d i
            (Printf.sprintf
               {|{"name":%s,"ph":"i","s":"t","cat":"syscall","pid":0,"tid":%d,"ts":%s|}
               (Json.string (span_name label)) node (ts time))
      | Trace.Send { node; time; msg_id; label } ->
          emit_d i
            (Printf.sprintf
               {|{"name":%s,"ph":"i","s":"t","cat":"send","pid":0,"tid":%d,"ts":%s,"args":{"msg_id":%d}|}
               (Json.string (span_name label)) node (ts time) msg_id)
      | Trace.Receive { node; time; msg_id; label } -> (
          match Hashtbl.find_opt sends msg_id with
          | Some (src, sent_at, send_label) ->
              let id = !next_span in
              incr next_span;
              let name = Json.string (span_name send_label) in
              emit_d i
                (Printf.sprintf
                   {|{"name":%s,"ph":"b","cat":"msg","id":%d,"pid":0,"tid":%d,"ts":%s,"args":{"msg_id":%d}|}
                   name id src (ts sent_at) msg_id);
              emit_d i
                (Printf.sprintf
                   {|{"name":%s,"ph":"e","cat":"msg","id":%d,"pid":0,"tid":%d,"ts":%s|}
                   name id node (ts time))
          | None ->
              emit_d i
                (Printf.sprintf
                   {|{"name":%s,"ph":"i","s":"t","cat":"recv","pid":0,"tid":%d,"ts":%s,"args":{"msg_id":%d}|}
                   (Json.string (span_name label)) node (ts time) msg_id))
      | Trace.Drop { node; time; reason } ->
          emit_d i
            (Printf.sprintf
               {|{"name":"drop","ph":"i","s":"t","cat":"drop","pid":0,"tid":%d,"ts":%s,"args":{"reason":%s}|}
               node (ts time) (Json.string reason))
      | Trace.Link_change { u; v; up; time } ->
          emit_d i
            (Printf.sprintf
               {|{"name":%s,"ph":"i","s":"p","cat":"link","pid":0,"tid":%d,"ts":%s,"args":{"peer":%d}|}
               (Json.string (if up then "link-up" else "link-down"))
               u (ts time) v)
      | Trace.Custom { time; label } ->
          emit_d i
            (Printf.sprintf
               {|{"name":%s,"ph":"i","s":"g","cat":"custom","pid":0,"tid":0,"ts":%s|}
               (Json.string (span_name label)) (ts time)))
    events;
  Buffer.add_string buf "\n  ]\n}\n"

let chrome ?process_name ?decorate t =
  let buf = Buffer.create 8192 in
  to_chrome ?process_name ?decorate buf t;
  Buffer.contents buf
