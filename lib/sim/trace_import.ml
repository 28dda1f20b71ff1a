(* Every record the repo emits is a single-line flat JSON object, so a
   line is read with {!Json.parse} and then held to that shape.
   Strictness is deliberate — a malformed line means the stream was
   corrupted (or is not ours), and analysis over a corrupted stream
   should refuse, not guess. *)

type record = (string * Json.t) list

type line =
  | Header of { schema_version : int; kind : string; fields : record }
  | Event of Trace.event
  | Truncated of { time : float; dropped : int; dropped_ring : int;
                   dropped_sink : int }
  | Other of { kind : string; fields : record }

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let flat = function Json.Arr _ | Json.Obj _ -> false | _ -> true

let parse_record s =
  match Json.parse s with
  | Ok (Json.Obj fields) when List.for_all (fun (_, v) -> flat v) fields ->
      Ok fields
  | Ok (Json.Obj _) ->
      Error "nested values are not part of the schema-v2 vocabulary"
  | Ok _ -> Error "expected a flat JSON object"
  | Error _ as e -> e

(* -- field access ------------------------------------------------------- *)

let number fields key =
  match List.assoc_opt key fields with Some (Json.Num f) -> Some f | _ -> None

let int_field fields key =
  match number fields key with Some f -> Some (int_of_float f) | None -> None

let string_field fields key =
  match List.assoc_opt key fields with Some (Json.Str s) -> Some s | _ -> None

let bool_field fields key =
  match List.assoc_opt key fields with Some (Json.Bool b) -> Some b | _ -> None

let req_number fields key =
  match number fields key with
  | Some f -> f
  | None -> bad "missing numeric field %S" key

let req_int fields key = int_of_float (req_number fields key)

let req_string fields key =
  match string_field fields key with
  | Some s -> s
  | None -> bad "missing string field %S" key

let req_bool fields key =
  match bool_field fields key with
  | Some b -> b
  | None -> bad "missing boolean field %S" key

(* -- classification ----------------------------------------------------- *)

let event_of_record kind fields =
  match kind with
  | "hop" ->
      Some
        (Trace.Hop
           {
             src = req_int fields "src";
             dst = req_int fields "dst";
             time = req_number fields "time";
             msg_id = req_int fields "msg_id";
           })
  | "syscall" ->
      Some
        (Trace.Syscall
           {
             node = req_int fields "node";
             time = req_number fields "time";
             label = req_string fields "label";
           })
  | "send" ->
      Some
        (Trace.Send
           {
             node = req_int fields "node";
             time = req_number fields "time";
             msg_id = req_int fields "msg_id";
             label = req_string fields "label";
           })
  | "receive" ->
      Some
        (Trace.Receive
           {
             node = req_int fields "node";
             time = req_number fields "time";
             msg_id = req_int fields "msg_id";
             label = req_string fields "label";
           })
  | "drop" ->
      Some
        (Trace.Drop
           {
             node = req_int fields "node";
             time = req_number fields "time";
             reason = req_string fields "reason";
           })
  | "link_change" ->
      Some
        (Trace.Link_change
           {
             u = req_int fields "u";
             v = req_int fields "v";
             up = req_bool fields "up";
             time = req_number fields "time";
           })
  | "custom" ->
      Some
        (Trace.Custom
           {
             time = req_number fields "time";
             label = req_string fields "label";
           })
  | _ -> None

let classify fields =
  match string_field fields "type" with
  | None -> bad "record has no \"type\" field"
  | Some "header" ->
      let sv = req_int fields "schema_version" in
      if sv > Trace_export.schema_version then
        bad "stream schema_version %d is newer than this reader (%d)" sv
          Trace_export.schema_version;
      let kind = req_string fields "kind" in
      let fields =
        List.filter
          (fun (k, _) ->
            k <> "type" && k <> "schema_version" && k <> "kind")
          fields
      in
      Header { schema_version = sv; kind; fields }
  | Some "truncated" ->
      Truncated
        {
          time = req_number fields "time";
          dropped = req_int fields "dropped";
          dropped_ring = req_int fields "dropped_ring";
          dropped_sink = req_int fields "dropped_sink";
        }
  | Some kind -> (
      match event_of_record kind fields with
      | Some e -> Event e
      | None -> Other { kind; fields })

let parse_line s =
  match parse_record s with
  | Error _ as e -> e
  | Ok fields -> ( try Ok (classify fields) with Bad msg -> Error msg)

(* -- files -------------------------------------------------------------- *)

let fold_file path ~init ~f =
  match
    In_channel.with_open_text path (fun ic ->
        let rec go acc lineno =
          match In_channel.input_line ic with
          | None -> Ok acc
          | Some raw ->
              (* writers end every record with '\n'; a partial final
                 line (killed writer) would fail to parse below *)
              if String.trim raw = "" then go acc (lineno + 1)
              else (
                match parse_line raw with
                | Ok l -> go (f acc ~lineno l) (lineno + 1)
                | Error msg ->
                    Error (Printf.sprintf "%s:%d: %s" path lineno msg))
        in
        go init 1)
  with
  | r -> r
  | exception Sys_error msg -> Error msg

let events_of_file path =
  Result.map List.rev
    (fold_file path ~init:[] ~f:(fun acc ~lineno:_ l ->
         match l with Event e -> e :: acc | _ -> acc))
