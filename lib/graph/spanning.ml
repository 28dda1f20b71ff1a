let bfs_tree ?edge_up g ~root =
  let dist = Traversal.distances ?edge_up g ~root in
  let up e =
    match edge_up with None -> true | Some up -> up (Graph.edge_uid g e)
  in
  (* smallest-id neighbour in the previous layer, over a usable link *)
  let rec parent v i =
    let e = Graph.edge_id g v i in
    let u = Graph.edge_target g e in
    if dist.(u) = dist.(v) - 1 && up e then u else parent v (i + 1)
  in
  let parents = ref [] in
  Graph.iter_nodes
    (fun v ->
      if v <> root && dist.(v) > 0 then parents := (v, parent v 1) :: !parents)
    g;
  Tree.of_parents ~root ~parents:!parents

let dfs_tree g ~root =
  let n = Graph.n g in
  let seen = Array.make n false in
  seen.(root) <- true;
  let parents = ref [] in
  let rec visit u =
    List.iter
      (fun v ->
        if not seen.(v) then begin
          seen.(v) <- true;
          parents := (v, u) :: !parents;
          visit v
        end)
      (Graph.neighbors g u)
  in
  visit root;
  Tree.of_parents ~root ~parents:!parents

let random_spanning_tree rng g ~root =
  let n = Graph.n g in
  let seen = Array.make n false in
  seen.(root) <- true;
  let frontier = ref [ root ] in
  let parents = ref [] in
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
            parents := (v, u) :: !parents;
            frontier := v :: !frontier);
        grow ()
  in
  grow ();
  Tree.of_parents ~root ~parents:!parents
