(* One int per element, [(link lsl 1) lor copy]: the switching
   subsystem advances an int cursor instead of walking a list, so a
   packet in flight allocates nothing per hop. *)
type route = int array

let code ~link ~copy = (link lsl 1) lor if copy then 1 else 0

(* The injecting node's own NCU already holds the message, so
   [copy_at] is only consulted at intermediate nodes. *)
let of_walk ?(copy_at = fun _ -> false) g walk =
  let len = Array.length walk in
  if len = 0 then invalid_arg "Anr.of_walk: empty walk"
  else if len = 1 then [||]
  else begin
    let first = walk.(0) in
    let codes = Array.make len 0 in
    for i = 0 to len - 2 do
      let u = walk.(i) and v = walk.(i + 1) in
      let link = Netgraph.Graph.link_index g u v in
      codes.(i) <- code ~link ~copy:(u <> first && copy_at u)
    done;
    codes
  end

(* [walk.(i)] is [(node lsl 1) lor flag], as [Walks.mark_first_visits]
   emits it. *)
let of_walk_marked g walk =
  let len = Array.length walk in
  if len = 0 then invalid_arg "Anr.of_walk_marked: empty walk"
  else if len = 1 then [||]
  else begin
    let first = walk.(0) lsr 1 in
    let codes = Array.make len 0 in
    for i = 0 to len - 2 do
      let u = walk.(i) lsr 1 and v = walk.(i + 1) lsr 1 in
      let link = Netgraph.Graph.link_index g u v in
      codes.(i) <- code ~link ~copy:(u <> first && walk.(i) land 1 = 1)
    done;
    codes
  end

let hop link = [| code ~link ~copy:false; 0 |]

let route_of_codes codes =
  let len = Array.length codes in
  if len > 0 && codes.(len - 1) <> 0 then
    invalid_arg "Anr.route_of_codes: a route must end with the NCU element";
  codes

let route_length r = Array.length r
let route_link r i = r.(i) lsr 1
let route_copy r i = r.(i) land 1 <> 0

let copy_targets g ~src r =
  let len = Array.length r in
  let rec follow u i acc =
    if i >= len then List.rev acc
    else
      let link = route_link r i in
      if link = 0 then
        if i = len - 1 then List.rev (u :: acc)
        else invalid_arg "Anr.copy_targets: malformed header"
      else
        let v = Netgraph.Graph.peer_via g u link in
        follow v (i + 1) (if route_copy r i then u :: acc else acc)
  in
  follow src 0 []

(* Per-element ID width: enough bits for every incident link's normal
   and copy ID plus the reserved NCU id 0.  The copy flag is the most
   significant bit, as the paper suggests ("the copy ID and the normal
   ID can be identical except for the most significant bit"). *)
let id_bits g =
  let ids = 2 * (Netgraph.Graph.max_degree g + 1) in
  let rec bits_needed k acc = if 1 lsl acc >= k then acc else bits_needed k (acc + 1) in
  max 2 (bits_needed ids 0)

let pp ppf r =
  let pp_elem ppf i =
    let link = route_link r i in
    if link = 0 then Format.fprintf ppf "NCU"
    else Format.fprintf ppf "%s%d" (if route_copy r i then "c" else "") link
  in
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";") pp_elem)
    (List.init (Array.length r) Fun.id)
