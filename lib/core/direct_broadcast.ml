module Tree = Netgraph.Tree
module Network = Hardware.Network

type msg = { origin : int }

(* Walks to every other node of the root's component, grouped by first
   hop.  Minimum-hop routes from the BFS tree of the view. *)
let walk_groups ~view ~root =
  let tree = Netgraph.Spanning.bfs_tree view ~root in
  let walks =
    List.filter_map
      (fun v ->
        if v = root then None
        else Some (Array.of_list (Tree.path_from_root tree v)))
      (Tree.nodes tree)
  in
  let groups = Hashtbl.create 8 in
  List.iter
    (fun walk ->
      let first = walk.(1) in
      let existing = Option.value ~default:[] (Hashtbl.find_opt groups first) in
      Hashtbl.replace groups first (walk :: existing))
    walks;
  Hashtbl.fold (fun _ group acc -> List.rev group :: acc) groups []

let spec ~reached ~view v =
  {
    Network.on_start =
      (fun ctx ->
        let root = Network.self ctx in
        let m = { origin = root } in
        let groups = ref (walk_groups ~view ~root) in
        (* One packet per outgoing link per activation; re-arm a timer
           for the next round while any group is non-empty. *)
        let rec dispatch_round ctx =
          let remaining =
            List.filter_map
              (fun group ->
                match group with
                | [] -> None
                | walk :: rest ->
                    Network.send_walk ~label:"direct" ctx ~walk m;
                    if rest = [] then None else Some rest)
              !groups
          in
          groups := remaining;
          if remaining <> [] then
            Network.set_timer ~label:"direct-round" ctx ~delay:0.0 (fun () ->
                dispatch_round ctx)
        in
        dispatch_round ctx);
    on_message = (fun _ ~via:_ _ -> reached.(v) <- true);
    on_link_change = (fun _ ~peer:_ ~up:_ -> ());
  }

let run ?(config = Broadcast.default_config ()) ~graph ~root () =
  Broadcast.execute ~config ~graph ~root ~spec ()
