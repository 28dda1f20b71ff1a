type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Fail of string * int

let fail msg pos = raise (Fail (msg, pos))

(* Deeper input is refused rather than recursed into, so a hostile
   line cannot overflow the stack. *)
let max_depth = 512

(* One mutable cursor over the input; every parse_* consumes exactly
   its value and leaves the cursor after it. *)
type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance c;
      skip_ws c
  | _ -> ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | _ -> fail (Printf.sprintf "expected %C" ch) c.pos

let parse_literal c word value =
  let len = String.length word in
  if
    c.pos + len <= String.length c.src
    && String.sub c.src c.pos len = word
  then begin
    c.pos <- c.pos + len;
    value
  end
  else fail (Printf.sprintf "expected %s" word) c.pos

let is_num_char = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

let parse_number c =
  let start = c.pos in
  let rec go () =
    match peek c with
    | Some ch when is_num_char ch ->
        advance c;
        go ()
    | _ -> ()
  in
  go ();
  let s = String.sub c.src start (c.pos - start) in
  match float_of_string_opt s with
  | Some f -> Num f
  | None -> fail (Printf.sprintf "bad number %S" s) start

let hex_digit pos = function
  | '0' .. '9' as ch -> Char.code ch - Char.code '0'
  | 'a' .. 'f' as ch -> Char.code ch - Char.code 'a' + 10
  | 'A' .. 'F' as ch -> Char.code ch - Char.code 'A' + 10
  | _ -> fail "bad hex digit" pos

let add_utf8 buf code =
  let byte b = Buffer.add_char buf (Char.chr b) in
  if code < 0x80 then byte code
  else if code < 0x800 then begin
    byte (0xC0 lor (code lsr 6));
    byte (0x80 lor (code land 0x3F))
  end
  else begin
    byte (0xE0 lor (code lsr 12));
    byte (0x80 lor ((code lsr 6) land 0x3F));
    byte (0x80 lor (code land 0x3F))
  end

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail "unterminated string" c.pos
    | Some '"' -> advance c
    | Some '\\' -> (
        advance c;
        match peek c with
        | None -> fail "unterminated escape" c.pos
        | Some ch ->
            advance c;
            (match ch with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
                if c.pos + 4 > String.length c.src then
                  fail "truncated \\u escape" c.pos;
                let digit i = hex_digit (c.pos + i) c.src.[c.pos + i] in
                let code =
                  (digit 0 lsl 12) lor (digit 1 lsl 8) lor (digit 2 lsl 4)
                  lor digit 3
                in
                c.pos <- c.pos + 4;
                add_utf8 buf code
            | _ -> fail "bad escape" c.pos);
            go ())
    | Some ch ->
        advance c;
        Buffer.add_char buf ch;
        go ()
  in
  go ();
  Buffer.contents buf

let rec parse_value c depth =
  skip_ws c;
  if depth > max_depth then fail "nesting too deep" c.pos;
  match peek c with
  | None -> fail "unexpected end of input" c.pos
  | Some '{' ->
      advance c;
      skip_ws c;
      if peek c = Some '}' then begin
        advance c;
        Obj []
      end
      else
        let rec members acc =
          skip_ws c;
          let key = parse_string c in
          skip_ws c;
          expect c ':';
          let value = parse_value c (depth + 1) in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              members ((key, value) :: acc)
          | Some '}' ->
              advance c;
              Obj (List.rev ((key, value) :: acc))
          | _ -> fail "expected ',' or '}'" c.pos
        in
        members []
  | Some '[' ->
      advance c;
      skip_ws c;
      if peek c = Some ']' then begin
        advance c;
        Arr []
      end
      else
        let rec elements acc =
          let value = parse_value c (depth + 1) in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              elements (value :: acc)
          | Some ']' ->
              advance c;
              Arr (List.rev (value :: acc))
          | _ -> fail "expected ',' or ']'" c.pos
        in
        elements []
  | Some '"' -> Str (parse_string c)
  | Some 't' -> parse_literal c "true" (Bool true)
  | Some 'f' -> parse_literal c "false" (Bool false)
  | Some 'n' -> parse_literal c "null" Null
  | Some _ -> parse_number c

let parse src =
  let c = { src; pos = 0 } in
  match parse_value c 0 with
  | value ->
      skip_ws c;
      if c.pos = String.length src then Ok value
      else Error (Printf.sprintf "trailing garbage at byte %d" c.pos)
  | exception Fail (msg, pos) ->
      Error (Printf.sprintf "%s at byte %d" msg pos)

let member key = function
  | Obj fields -> (
      match List.assoc_opt key fields with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "missing field %S" key))
  | _ -> Error (Printf.sprintf "expected an object around %S" key)

let to_float = function
  | Num f -> Ok f
  | _ -> Error "expected a number"

let to_int = function
  | Num f when Float.is_integer f -> Ok (int_of_float f)
  | Num _ -> Error "expected an integer"
  | _ -> Error "expected a number"

let to_string = function
  | Str s -> Ok s
  | _ -> Error "expected a string"

let to_list = function
  | Arr l -> Ok l
  | _ -> Error "expected an array"

let to_bool = function
  | Bool b -> Ok b
  | _ -> Error "expected a boolean"

let escape_into buf s =
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | ch when Char.code ch < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code ch))
      | ch -> Buffer.add_char buf ch)
    s

let escape s =
  let buf = Buffer.create (String.length s) in
  escape_into buf s;
  Buffer.contents buf

let string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  escape_into buf s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let float f = Printf.sprintf "%.12g" f

let rec render = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num f -> float f
  | Str s -> string s
  | Arr l -> "[" ^ String.concat "," (List.map render l) ^ "]"
  | Obj fields ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> string k ^ ":" ^ render v) fields)
      ^ "}"
