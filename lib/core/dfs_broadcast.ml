module Network = Hardware.Network
module Anr = Hardware.Anr

type msg = { origin : int }

let tour_for ~view ~root =
  let tree = Netgraph.Spanning.bfs_tree view ~root in
  Walks.truncate (Walks.euler_tour tree)

let spec ~reached ~view v =
  {
    Network.on_start =
      (fun ctx ->
        let root = Network.self ctx in
        match tour_for ~view ~root with
        | [] | [ _ ] -> ()  (* nothing to inform *)
        | tour ->
            let marked = Walks.mark_first_visits tour in
            let route = Anr.of_walk_marked (Network.graph (Network.network ctx)) marked in
            Network.send ~label:"dfs-token" ctx ~route { origin = root });
    on_message = (fun _ ~via:_ _ -> reached.(v) <- true);
    on_link_change = (fun _ ~peer:_ ~up:_ -> ());
  }

let run ?(config = Broadcast.default_config ()) ~graph ~root () =
  Broadcast.execute ~config ~graph ~root ~spec ()
