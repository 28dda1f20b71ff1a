module Tree = Netgraph.Tree
module Network = Hardware.Network
module Anr = Hardware.Anr

type msg = { origin : int }

let tour_for ~view ~root =
  let tree = Netgraph.Spanning.bfs_tree view ~root in
  let height = Tree.height tree in
  let rec layer_tours k acc =
    if k > height then List.rev acc
    else
      let sub = Walks.restrict_to_depth tree k in
      layer_tours (k + 1) (Walks.euler_tour sub :: acc)
  in
  let tours = layer_tours 1 [] in
  (* Each closed tour starts and ends at the root; splice them. *)
  Walks.truncate
    (match tours with
    | [] -> [ root ]
    | first :: rest ->
        List.fold_left (fun acc tour -> acc @ List.tl tour) first rest)

let header_length ~view ~root =
  match tour_for ~view ~root with
  | [] | [ _ ] -> 0
  | walk -> List.length walk - 1

let spec ~reached ~view v =
  {
    Network.on_start =
      (fun ctx ->
        let root = Network.self ctx in
        match tour_for ~view ~root with
        | [] | [ _ ] -> ()
        | tour ->
            let marked = Walks.mark_first_visits tour in
            let route =
              Anr.of_walk_marked (Network.graph (Network.network ctx)) marked
            in
            Network.send ~label:"layered-token" ctx ~route { origin = root });
    on_message = (fun _ ~via:_ _ -> reached.(v) <- true);
    on_link_change = (fun _ ~peer:_ ~up:_ -> ());
  }

let run ?(config = Broadcast.default_config ()) ~graph ~root () =
  Broadcast.execute ~config ~graph ~root ~spec ()
