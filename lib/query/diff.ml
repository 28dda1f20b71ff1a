(* Lockstep structural comparison with a bounded causal window.  The
   two streams agree on every event before the divergence point by
   construction, so the window ring holds the *common* prefix — the
   DAG built from it explains the divergent event's causal context in
   terms both executions share. *)

type divergence = {
  index : int;
  baseline : Sim.Trace.event option;
  candidate : Sim.Trace.event option;
  node : int option;
  chain : (int * Analysis.Event_dag.edge_kind * Sim.Trace.event) list;
}

type outcome = Identical of int | Diverged of divergence

let exit_code = 9
let max_chain = 8

(* Ring of the last [window] common-prefix events. *)
type ring = {
  buf : Sim.Trace.event option array;
  mutable seen : int;
}

let ring_create window = { buf = Array.make window None; seen = 0 }

let ring_push r e =
  r.buf.(r.seen mod Array.length r.buf) <- Some e;
  r.seen <- r.seen + 1

(* oldest-first contents, with the absolute index of the first one *)
let ring_contents r =
  let w = Array.length r.buf in
  let used = min r.seen w in
  let base = r.seen - used in
  ( base,
    List.init used (fun i ->
        match r.buf.((base + i) mod w) with
        | Some e -> e
        | None -> assert false) )

let chain_of ~c ring divergent =
  let base, prefix = ring_contents ring in
  let events, start_rel =
    match divergent with
    | Some e -> (prefix @ [ e ], List.length prefix)
    | None -> (
        (* the candidate ended early: explain the baseline's last
           common event instead *)
        match List.length prefix with
        | 0 -> (prefix, -1)
        | n -> (prefix, n - 1))
  in
  if start_rel < 0 then []
  else begin
    let dag = Analysis.Event_dag.of_events events in
    let rec walk rel acc depth =
      if depth >= max_chain then List.rev acc
      else
        match Analysis.Critical_path.binding_pred ~c dag rel with
        | None -> List.rev acc
        | Some (p, kind, _) ->
            walk p
              ((base + p, kind, Analysis.Event_dag.event dag p) :: acc)
              (depth + 1)
    in
    (* nearest predecessor first *)
    walk start_rel [] 0
  end

let diverged ~c ring index a b =
  let node =
    match (b, a) with
    | Some e, _ | None, Some e -> Engine.charged_node e
    | None, None -> None
  in
  Diverged
    {
      index;
      baseline = a;
      candidate = b;
      node;
      chain = chain_of ~c ring (match b with Some _ -> b | None -> a);
    }

(* -- event lists -------------------------------------------------------- *)

let of_events ?(window = 4096) ?(c = 0.0) ~baseline candidate =
  let ring = ring_create (max 1 window) in
  let rec go i xs ys =
    match (xs, ys) with
    | [], [] -> Identical i
    | x :: xs', y :: ys' ->
        if x = y then begin
          ring_push ring x;
          go (i + 1) xs' ys'
        end
        else diverged ~c ring i (Some x) (Some y)
    | x :: _, [] -> diverged ~c ring i (Some x) None
    | [], y :: _ -> diverged ~c ring i None (Some y)
  in
  go 0 baseline candidate

(* -- files -------------------------------------------------------------- *)

exception Failed of string

(* next trace event of one stream, skipping headers/telemetry *)
let rec next_event path ic lineno =
  match In_channel.input_line ic with
  | None -> (None, lineno)
  | Some raw when String.trim raw = "" -> next_event path ic (lineno + 1)
  | Some raw -> (
      match Sim.Trace_import.parse_line raw with
      | Error msg ->
          raise (Failed (Printf.sprintf "%s:%d: %s" path lineno msg))
      | Ok (Sim.Trace_import.Event e) -> (Some e, lineno + 1)
      | Ok _ -> next_event path ic (lineno + 1))

let of_files ?(window = 4096) ?(c = 0.0) ~baseline candidate =
  match
    In_channel.with_open_text baseline (fun ica ->
        In_channel.with_open_text candidate (fun icb ->
            let ring = ring_create (max 1 window) in
            let rec go i la lb =
              let a, la = next_event baseline ica la in
              let b, lb = next_event candidate icb lb in
              match (a, b) with
              | None, None -> Identical i
              | Some x, Some y when x = y ->
                  ring_push ring x;
                  go (i + 1) la lb
              | a, b -> diverged ~c ring i a b
            in
            go 0 1 1))
  with
  | outcome -> Ok outcome
  | exception Failed msg -> Error msg
  | exception Sys_error msg -> Error msg

(* -- rendering ---------------------------------------------------------- *)

let edge_name = function
  | Analysis.Event_dag.Message -> "message"
  | Analysis.Event_dag.Fifo -> "fifo"
  | Analysis.Event_dag.Queue -> "queue"
  | Analysis.Event_dag.Local -> "local"

let report ~baseline ~candidate outcome =
  match outcome with
  | Identical n -> Printf.sprintf "traces identical (%d events)\n" n
  | Diverged d ->
      let b = Buffer.create 512 in
      Printf.bprintf b "first divergence at event %d\n" d.index;
      Printf.bprintf b "  baseline  [%s]: %s\n" baseline
        (match d.baseline with
        | Some e -> Sim.Trace_export.jsonl_of_event e
        | None -> "(stream ended: no event at this index)");
      Printf.bprintf b "  candidate [%s]: %s\n" candidate
        (match d.candidate with
        | Some e -> Sim.Trace_export.jsonl_of_event e
        | None -> "(stream ended: no event at this index)");
      (match d.node with
      | Some n -> Printf.bprintf b "  charged to node %d\n" n
      | None -> ());
      (match d.chain with
      | [] -> ()
      | chain ->
          Printf.bprintf b "  binding predecessors (nearest first):\n";
          List.iter
            (fun (i, kind, e) ->
              Printf.bprintf b "    #%d [%s] %s\n" i (edge_name kind)
                (Sim.Trace_export.jsonl_of_event e))
            chain);
      Buffer.contents b

let to_json outcome =
  match outcome with
  | Identical n ->
      Printf.sprintf "{\"identical\":true,\"events\":%d}" n
  | Diverged d ->
      let event_json = function
        | Some e -> Sim.Trace_export.jsonl_of_event e
        | None -> "null"
      in
      Printf.sprintf
        "{\"identical\":false,\"index\":%d,\"node\":%s,\"baseline\":%s,\
         \"candidate\":%s,\"chain\":[%s]}"
        d.index
        (match d.node with Some n -> string_of_int n | None -> "null")
        (event_json d.baseline) (event_json d.candidate)
        (String.concat ","
           (List.map
              (fun (i, kind, e) ->
                Printf.sprintf "{\"index\":%d,\"edge\":\"%s\",\"event\":%s}"
                  i (edge_name kind)
                  (Sim.Trace_export.jsonl_of_event e))
              d.chain))
