type elem = { link : int; copy : bool }
type t = elem list

let deliver = { link = 0; copy = false }

let of_walk ?(copy_at = fun _ -> false) g walk =
  match walk with
  | [] -> invalid_arg "Anr.of_walk: empty walk"
  | [ _ ] -> []
  | first :: _ ->
      (* The injecting node's own NCU already holds the message, so
         [copy_at] is only consulted at intermediate nodes. *)
      let rec build = function
        | [] | [ _ ] -> [ deliver ]
        | u :: (v :: _ as rest) ->
            let link = Netgraph.Graph.link_index g u v in
            let copy = u <> first && copy_at u in
            { link; copy } :: build rest
      in
      build walk

let of_walk_marked g walk =
  match walk with
  | [] -> invalid_arg "Anr.of_walk_marked: empty walk"
  | [ _ ] -> []
  | (first, _) :: _ ->
      let rec build = function
        | [] | [ _ ] -> [ deliver ]
        | (u, flag) :: ((v, _) :: _ as rest) ->
            let link = Netgraph.Graph.link_index g u v in
            { link; copy = u <> first && flag } :: build rest
      in
      build walk

let hops t = List.length (List.filter (fun e -> e.link > 0) t)
let length t = List.length t

(* -- compiled routes (the switching-fabric fast path) ----------------- *)

(* One int per element, [(link lsl 1) lor copy]: the switching
   subsystem advances an int cursor instead of walking a list, so a
   packet in flight allocates nothing per hop. *)
type route = int array

let compile t =
  let codes = Array.make (List.length t) 0 in
  List.iteri
    (fun i e -> codes.(i) <- (e.link lsl 1) lor (if e.copy then 1 else 0))
    t;
  codes

let route_of_codes codes =
  let len = Array.length codes in
  if len > 0 && codes.(len - 1) <> 0 then
    invalid_arg "Anr.route_of_codes: a route must end with the NCU element";
  codes

let route_length r = Array.length r
let route_link r i = r.(i) lsr 1
let route_copy r i = r.(i) land 1 <> 0

(* [compile (of_walk ?copy_at g walk)] over an int-array walk, as an
   {!Inout.route_array} climb produces it, so compiling the route
   touches no list at all. *)
let compile_walk_arr ?(copy_at = fun _ -> false) g walk =
  let len = Array.length walk in
  if len = 0 then invalid_arg "Anr.compile_walk_arr: empty walk"
  else if len = 1 then [||]
  else begin
    let first = walk.(0) in
    let codes = Array.make len 0 in
    for i = 0 to len - 2 do
      let u = walk.(i) and v = walk.(i + 1) in
      let link = Netgraph.Graph.link_index g u v in
      let copy = u <> first && copy_at u in
      codes.(i) <- (link lsl 1) lor (if copy then 1 else 0)
    done;
    codes
  end

(* Packed-walk variant of {!of_walk_marked}: [walk.(i)] is
   [(node lsl 1) lor flag], as {!Inout.tour} emits it. *)
let compile_walk_marked_arr g walk =
  let len = Array.length walk in
  if len = 0 then invalid_arg "Anr.compile_walk_marked_arr: empty walk"
  else if len = 1 then [||]
  else begin
    let first = walk.(0) lsr 1 in
    let codes = Array.make len 0 in
    for i = 0 to len - 2 do
      let u = walk.(i) lsr 1 and v = walk.(i + 1) lsr 1 in
      let link = Netgraph.Graph.link_index g u v in
      let copy = u <> first && walk.(i) land 1 = 1 in
      codes.(i) <- (link lsl 1) lor (if copy then 1 else 0)
    done;
    codes
  end

let copy_targets g ~src t =
  let rec follow u acc = function
    | [] -> List.rev acc
    | [ { link = 0; _ } ] -> List.rev (u :: acc)
    | { link = 0; _ } :: _ -> invalid_arg "Anr.copy_targets: malformed header"
    | { link; copy } :: rest ->
        let v = Netgraph.Graph.peer_via g u link in
        follow v (if copy then u :: acc else acc) rest
  in
  follow src [] t

(* Per-element ID width: enough bits for every incident link's normal
   and copy ID plus the reserved NCU id 0.  The copy flag is the most
   significant bit, as the paper suggests ("the copy ID and the normal
   ID can be identical except for the most significant bit"). *)
let id_bits g =
  let ids = 2 * (Netgraph.Graph.max_degree g + 1) in
  let rec bits_needed k acc = if 1 lsl acc >= k then acc else bits_needed k (acc + 1) in
  max 2 (bits_needed ids 0)

let pp ppf t =
  let pp_elem ppf e =
    if e.link = 0 then Format.fprintf ppf "NCU"
    else Format.fprintf ppf "%s%d" (if e.copy then "c" else "") e.link
  in
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";") pp_elem)
    t
