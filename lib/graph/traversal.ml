(* Breadth-first over the CSR slices: neighbours come out in
   increasing id order, exactly as [Graph.neighbors] lists them, and
   [edge_up] (an undirected-edge-id predicate) masks links without
   materialising a filtered graph. *)
let distances ?edge_up g ~root =
  let n = Graph.n g in
  let dist = Array.make n (-1) in
  dist.(root) <- 0;
  let q = Queue.create () in
  Queue.add root q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    for i = 1 to Graph.degree g u do
      let e = Graph.edge_id g u i in
      let v = Graph.edge_target g e in
      if
        dist.(v) < 0
        && match edge_up with None -> true | Some up -> up (Graph.edge_uid g e)
      then begin
        dist.(v) <- dist.(u) + 1;
        Queue.add v q
      end
    done
  done;
  dist

let bfs_order g ~root =
  let n = Graph.n g in
  let seen = Array.make n false in
  seen.(root) <- true;
  let q = Queue.create () in
  Queue.add root q;
  let out = ref [] in
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    out := u :: !out;
    List.iter
      (fun v ->
        if not seen.(v) then begin
          seen.(v) <- true;
          Queue.add v q
        end)
      (Graph.neighbors g u)
  done;
  List.rev !out

let bfs_layers g ~root =
  let dist = distances g ~root in
  let deepest = Array.fold_left max 0 dist in
  let layers = Array.make (deepest + 1) [] in
  Array.iteri
    (fun v d -> if d >= 0 then layers.(d) <- v :: layers.(d))
    dist;
  Array.to_list (Array.map (List.sort compare) layers)

let dfs_preorder g ~root =
  let n = Graph.n g in
  let seen = Array.make n false in
  let out = ref [] in
  let rec visit u =
    if not seen.(u) then begin
      seen.(u) <- true;
      out := u :: !out;
      List.iter visit (Graph.neighbors g u)
    end
  in
  visit root;
  List.rev !out

let reachable g ~root =
  let dist = distances g ~root in
  Array.map (fun d -> d >= 0) dist

let component_of g v =
  let r = reachable g ~root:v in
  let out = ref [] in
  Array.iteri (fun u inside -> if inside then out := u :: !out) r;
  List.sort compare !out

let components g =
  let n = Graph.n g in
  let assigned = Array.make n false in
  let out = ref [] in
  for v = n - 1 downto 0 do
    if not assigned.(v) then begin
      let comp = component_of g v in
      List.iter (fun u -> assigned.(u) <- true) comp;
      out := comp :: !out
    end
  done;
  List.sort compare !out
