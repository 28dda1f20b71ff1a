module Network = Hardware.Network
module Graph = Netgraph.Graph

type msg =
  | Data of { origin : int; attempt : int }
  | Ack of { src : int }

let forward ctx ~except m =
  let self = Network.self ctx in
  let net = Network.network ctx in
  let forwarded = ref 0 in
  (* allocation-free scan of the up links; same increasing-peer order
     as the old [Network.neighbors] list *)
  Network.iter_active_neighbors net self (fun peer ->
      if Some peer <> except then begin
        incr forwarded;
        Network.send_walk ~label:"flood" ctx ~walk:[ self; peer ] m
      end);
  if !forwarded > 0 then
    match Network.registry (Network.network ctx) with
    | Some r when Hardware.Registry.enabled r ->
        Hardware.Registry.add
          (Hardware.Registry.counter r "flood.forwards") !forwarded
    | _ -> ()

(* [ack_tree] (recovery only) is a BFS tree of the root's view: the
   fixed routes acks climb to reach the root.  One handler record
   serves every node of a run: each handler reads its node from the
   context, and [seen_attempt.(v)] is the last attempt [v] flooded. *)
let spec ?recovery ?ack_tree ~reached ~view:_ =
  let seen_attempt = Array.make (Array.length reached) (-1) in
  let handlers =
    {
      Network.on_start =
        (fun ctx ->
          let send attempt =
            forward ctx ~except:None
              (Data { origin = Network.self ctx; attempt })
          in
          send 0;
          match recovery with
          | None -> ()
          | Some st ->
              Broadcast.Recovery.start st ctx
                ~resend:(fun ~attempt -> send attempt));
      on_message =
        (fun ctx ~via m ->
          match m with
          | Data d ->
              let v = Network.self ctx in
              reached.(v) <- true;
              if d.attempt > seen_attempt.(v) then begin
                seen_attempt.(v) <- d.attempt;
                forward ctx ~except:via m;
                match (recovery, ack_tree) with
                | Some _, Some tree -> (
                    match Broadcast.Recovery.ack_walk tree v with
                    | Some walk ->
                        Network.send_walk ~label:"flood-ack" ctx ~walk
                          (Ack { src = v })
                    | None -> ())
                | _ -> ()
              end
          | Ack { src } -> (
              match recovery with
              | Some st -> Broadcast.Recovery.ack st ~src
              | None -> ()));
      on_link_change = (fun _ ~peer:_ ~up:_ -> ());
    }
  in
  fun _ -> handlers

let run ?(config = Broadcast.default_config ()) ~graph ~root () =
  let recovery = Broadcast.Recovery.create config ~n:(Graph.n graph) ~root in
  let ack_tree =
    match recovery with
    | None -> None
    | Some _ ->
        let view = Option.value ~default:graph config.Broadcast.view in
        Some (Netgraph.Spanning.bfs_tree view ~root)
  in
  Broadcast.execute ~config ~graph ~root ~spec:(spec ?recovery ?ack_tree) ()
