(* A rooted tree as flat int arrays indexed by node id, each sized by
   the largest member id:
   - [parent.(v)] is [v]'s parent, -1 at the root and [off] at an id
     that is not a member;
   - [v]'s children are [kids.(first.(v)) .. kids.(first.(v + 1) - 1)],
     in increasing order (a CSR, as in [Graph]);
   - [order] lists the members in preorder. *)
type t = {
  root : int;
  parent : int array;
  first : int array;  (* length Array.length parent + 1 *)
  kids : int array;  (* length size - 1 *)
  order : int array;
}

let off = -2

let check_member t v =
  if v < 0 || v >= Array.length t.parent || t.parent.(v) = off then
    invalid_arg (Printf.sprintf "Tree: node %d is not a member" v)

(* [parent] holds every member's parent, -1 at [root] and [off]
   elsewhere, and every parent is a member.  The children CSR comes
   from a counting sort by parent over increasing child ids, so each
   slice is sorted; the preorder from an explicit stack, stack-safe at
   any height.  Every member has one parent, so a member that the walk
   down from the root misses lies on a cycle. *)
let build ~fn ~root parent =
  let len = Array.length parent in
  let first = Array.make (len + 1) 0 in
  Array.iter (fun p -> if p >= 0 then first.(p + 1) <- first.(p + 1) + 1) parent;
  for v = 0 to len - 1 do
    first.(v + 1) <- first.(v) + first.(v + 1)
  done;
  let size = first.(len) + 1 in
  let kids = Array.make (size - 1) 0 in
  let next = Array.sub first 0 len in
  Array.iteri
    (fun v p ->
      if p >= 0 then begin
        kids.(next.(p)) <- v;
        next.(p) <- next.(p) + 1
      end)
    parent;
  (* pop a node, push its children largest first *)
  let order = Array.make size root and stack = Array.make size root in
  let top = ref 1 and count = ref 0 in
  while !top > 0 do
    decr top;
    let v = stack.(!top) in
    order.(!count) <- v;
    incr count;
    for k = first.(v + 1) - 1 downto first.(v) do
      stack.(!top) <- kids.(k);
      incr top
    done
  done;
  if !count < size then invalid_arg (Printf.sprintf "Tree.%s: cycle detected" fn);
  { root; parent; first; kids; order }

let of_parents ~root ~parents =
  let refuse_negative v =
    if v < 0 then
      invalid_arg (Printf.sprintf "Tree.of_parents: negative node id %d" v)
  in
  refuse_negative root;
  let largest =
    List.fold_left
      (fun acc (v, _) ->
        refuse_negative v;
        max acc v)
      root parents
  in
  let parent = Array.make (largest + 1) off in
  parent.(root) <- -1;
  (* members first, each marked with -1 until its parent is checked *)
  List.iter
    (fun (v, _) ->
      if v = root then
        invalid_arg "Tree.of_parents: the root cannot have a parent";
      if parent.(v) <> off then
        invalid_arg (Printf.sprintf "Tree.of_parents: duplicate entry for %d" v);
      parent.(v) <- -1)
    parents;
  List.iter
    (fun (v, p) ->
      if p < 0 || p > largest || parent.(p) = off then
        invalid_arg
          (Printf.sprintf "Tree.of_parents: parent %d of %d is not a member" p v);
      parent.(v) <- p)
    parents;
  build ~fn:"of_parents" ~root parent

let of_parent_array ~root parent =
  let len = Array.length parent in
  if root < 0 || root >= len then
    invalid_arg
      (Printf.sprintf "Tree.of_parent_array: root %d out of [0,%d)" root len);
  if parent.(root) >= 0 then
    invalid_arg "Tree.of_parent_array: the root cannot have a parent";
  Array.iteri
    (fun v p ->
      if p >= len || (p >= 0 && p <> root && parent.(p) < 0) then
        invalid_arg
          (Printf.sprintf
             "Tree.of_parent_array: parent %d of %d is not a member" p v))
    parent;
  Array.iteri (fun v p -> if p < 0 && v <> root then parent.(v) <- off) parent;
  parent.(root) <- -1;
  build ~fn:"of_parent_array" ~root parent

let root t = t.root
let size t = Array.length t.order

let parent t v =
  check_member t v;
  let p = t.parent.(v) in
  if p < 0 then None else Some p

let children t v =
  check_member t v;
  let acc = ref [] in
  for k = t.first.(v + 1) - 1 downto t.first.(v) do
    acc := t.kids.(k) :: !acc
  done;
  !acc

let nodes t = Array.to_list t.order

let depth_of t v =
  check_member t v;
  let rec up v acc = if t.parent.(v) < 0 then acc else up t.parent.(v) (acc + 1) in
  up v 0

(* depth by node id, filled in preorder: parents precede children *)
let depths t =
  let depth = Array.make (Array.length t.parent) 0 in
  Array.iter
    (fun v -> if t.parent.(v) >= 0 then depth.(v) <- depth.(t.parent.(v)) + 1)
    t.order;
  depth

let height t = Array.fold_left max 0 (depths t)

let path_from_root t v =
  check_member t v;
  let rec up v acc =
    let p = t.parent.(v) in
    if p < 0 then v :: acc else up p (v :: acc)
  in
  up v []

let edges t =
  let acc = ref [] in
  for i = Array.length t.order - 1 downto 1 do
    let v = t.order.(i) in
    acc := (t.parent.(v), v) :: !acc
  done;
  !acc

let map_nodes f t =
  of_parents ~root:(f t.root)
    ~parents:(List.map (fun (p, v) -> (f v, f p)) (edges t))

let pp ppf t =
  let depth = depths t in
  Array.iter
    (fun v -> Format.fprintf ppf "%s%d@." (String.make (2 * depth.(v)) ' ') v)
    t.order
