module Network = Hardware.Network
module Graph = Netgraph.Graph

type msg =
  | Data of { origin : int; attempt : int }
  | Ack of { src : int }

let forward ctx ~except m =
  let self = Network.self ctx in
  let net = Network.network ctx in
  let forwarded = ref 0 in
  (* a list-free scan of the up links, in increasing-peer order; each
     copy goes out over a compiled one-hop route, [i] being the link's
     local index here *)
  Network.iter_active_neighbors net self (fun i peer ->
      if Some peer <> except then begin
        incr forwarded;
        Network.send_compiled ~label:"flood" ctx
          ~route:(Hardware.Anr.route_of_codes [| i lsl 1; 0 |])
          m
      end);
  if !forwarded > 0 then
    match Network.registry (Network.network ctx) with
    | Some r when Hardware.Registry.enabled r ->
        Hardware.Registry.add
          (Hardware.Registry.counter r "flood.forwards") !forwarded
    | _ -> ()

(* [ack_parent] (recovery only) is the BFS parent array of the root's
   view, the one the branching-paths compiler builds: the fixed routes
   acks climb to reach the root.  One handler
   record serves every node of a run: each handler reads its node from
   the context, and [seen_attempt.(v)] is the last attempt [v] flooded. *)
let spec ?recovery ?ack_parent ~reached ~view:_ =
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
                match (recovery, ack_parent) with
                | Some _, Some parent ->
                    Broadcast.Recovery.send_ack ~label:"flood-ack" ctx ~parent
                      (Ack { src = v })
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
  let ack_parent =
    match recovery with
    | None -> None
    | Some _ ->
        let view = Option.value ~default:graph config.Broadcast.view in
        Some (Branching_paths.compile_view ~graph ~view ~root).parent
  in
  Broadcast.execute ~config ~graph ~root ~spec:(spec ?recovery ?ack_parent) ()
