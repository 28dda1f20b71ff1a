let bfs_tree ?edge_up g ~root =
  let dist = Traversal.distances ?edge_up g ~root in
  let up e =
    match edge_up with None -> true | Some up -> up (Graph.edge_uid g e)
  in
  (* A node's parent is its smallest-id neighbour in the previous layer
     over a usable link: scanning the nodes in increasing id order
     reaches it first. *)
  let parent = Array.make (Graph.n g) (-1) in
  for u = 0 to Graph.n g - 1 do
    if dist.(u) >= 0 then
      for i = 1 to Graph.degree g u do
        let e = Graph.edge_id g u i in
        let v = Graph.edge_target g e in
        if dist.(v) = dist.(u) + 1 && parent.(v) < 0 && up e then
          parent.(v) <- u
      done
  done;
  Tree.of_parent_array ~root parent

let dfs_tree g ~root =
  let n = Graph.n g in
  let seen = Array.make n false in
  seen.(root) <- true;
  let parent = Array.make n (-1) in
  let rec visit u =
    List.iter
      (fun v ->
        if not seen.(v) then begin
          seen.(v) <- true;
          parent.(v) <- u;
          visit v
        end)
      (Graph.neighbors g u)
  in
  visit root;
  Tree.of_parent_array ~root parent

let random_spanning_tree rng g ~root =
  let n = Graph.n g in
  let seen = Array.make n false in
  seen.(root) <- true;
  let frontier = ref [ root ] in
  let parent = Array.make n (-1) in
  let rec grow () =
    match !frontier with
    | [] -> ()
    | _ ->
        let arr = Array.of_list !frontier in
        let u = Sim.Rng.pick_array rng arr in
        let fresh =
          List.filter (fun v -> not seen.(v)) (Graph.neighbors g u)
        in
        (match fresh with
        | [] -> frontier := List.filter (fun x -> x <> u) !frontier
        | _ ->
            let v = Sim.Rng.pick rng fresh in
            seen.(v) <- true;
            parent.(v) <- u;
            frontier := v :: !frontier);
        grow ()
  in
  grow ();
  Tree.of_parent_array ~root parent
