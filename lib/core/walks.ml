module Tree = Netgraph.Tree

(* Iterative worklist with explicit re-emit items: same order as the
   recursive [visit v = v :: concat (visit c @ [v])], but linear — the
   recursive form re-appends each child tour, Θ(n·depth) on paths. *)
type tour_item = Visit of int | Emit of int

let euler_tour ?order tree =
  let children v =
    match order with
    | None -> Tree.children tree v
    | Some order -> order ~self:v ~children:(Tree.children tree v)
  in
  let rec go acc = function
    | [] -> List.rev acc
    | Visit v :: rest ->
        let rest =
          List.fold_right
            (fun c work -> Visit c :: Emit v :: work)
            (children v) rest
        in
        go (v :: acc) rest
    | Emit v :: rest -> go (v :: acc) rest
  in
  go [] [ Visit (Tree.root tree) ]

let truncate walk =
  let seen = Hashtbl.create 16 in
  let last_new = ref 0 in
  List.iteri
    (fun i v ->
      if not (Hashtbl.mem seen v) then begin
        Hashtbl.replace seen v ();
        last_new := i
      end)
    walk;
  List.filteri (fun i _ -> i <= !last_new) walk

let restrict_to_depth tree depth =
  let members =
    List.filter (fun v -> Tree.depth_of tree v <= depth) (Tree.nodes tree)
  in
  let parents =
    List.filter_map
      (fun v ->
        match Tree.parent tree v with
        | None -> None
        | Some p -> Some (v, p))
      (List.filter (fun v -> v <> Tree.root tree) members)
  in
  Tree.of_parents ~root:(Tree.root tree) ~parents

let mark_first_visits walk =
  let seen = Hashtbl.create 16 in
  let packed = Array.of_list walk in
  Array.iteri
    (fun i v ->
      let first = not (Hashtbl.mem seen v) in
      if first then Hashtbl.replace seen v ();
      packed.(i) <- (v lsl 1) lor if first then 1 else 0)
    packed;
  packed
