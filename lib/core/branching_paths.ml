module Graph = Netgraph.Graph
module Tree = Netgraph.Tree
module Network = Hardware.Network

type msg =
  | Data of { origin : int; labelling : Labels.t; attempt : int }
      (** the broadcast payload; [attempt] > 0 marks a retransmission
          (relays forward once per attempt, acceptance is idempotent) *)
  | Ack of { src : int }  (** delivery acknowledgement back to the origin *)

let tree_for ~view ~root = Netgraph.Spanning.bfs_tree view ~root

let predicted_time_units tree = Labels.max_path_depth (Labels.compute tree)

(* Registry lookups happen only on protocol events (one per relaying
   node), never on the per-hop path, so by-name registration here is
   within the fast-path budget. *)
let publish_paths ctx k =
  if k > 0 then
    match Network.registry (Network.network ctx) with
    | Some r when Hardware.Registry.enabled r ->
        Hardware.Registry.add
          (Hardware.Registry.counter r "bpaths.paths_sent") k
    | _ -> ()

let compile_routes labelling graph =
  Array.init (Graph.n graph) (fun v ->
      Array.of_list
        (List.map
           (fun path ->
             Hardware.Anr.compile_walk ~copy_at:(fun _ -> true) graph path)
           (Labels.paths_from labelling v)))

let send_route ctx m route = Network.send_compiled ~label:"bpaths" ctx ~route m

let send_path ctx m walk =
  Network.send_walk ~label:"bpaths" ~copy_at:(fun _ -> true) ctx ~walk m

(* Ship [m] over every path leaving this head.  With multicast one
   activation ships them all (they leave through distinct child links,
   which the PARIS primitive covers); without it (ablation) each further
   path needs its own software activation. *)
let ship ~multicast ctx m paths send =
  let count = Array.length paths in
  publish_paths ctx count;
  if multicast then
    for i = 0 to count - 1 do
      send ctx m paths.(i)
    done
  else if count > 0 then begin
    send ctx m paths.(0);
    let rec drain i =
      if i < count then
        Network.set_timer ~label:"bpaths-extra" ctx ~delay:0.0 (fun () ->
            send ctx m paths.(i);
            drain (i + 1))
    in
    drain 1
  end

(* Over the head's compiled routes when a route table is supplied, else
   over walk-built headers — the compiled route of a path is exactly the
   header [send_walk] would build, so both arms produce the same
   packets. *)
let send_paths ~multicast ~routes ctx labelling m =
  let self = Network.self ctx in
  match routes with
  | Some table -> ship ~multicast ctx m table.(self) send_route
  | None ->
      ship ~multicast ctx m (Array.of_list (Labels.paths_from labelling self)) send_path

(* One handler record serves every node of a run: each handler reads
   its node from the context, so a run builds no per-node closures. *)
let spec ?precomputed ?routes ?recovery ~multicast ~reached ~view =
  let handlers =
    {
      Network.on_start =
        (fun ctx ->
          let root = Network.self ctx in
          let labelling =
            match precomputed with
            | Some l -> l
            | None -> Labels.compute (tree_for ~view ~root)
          in
          let send attempt =
            send_paths ~multicast ~routes ctx labelling
              (Data { origin = root; labelling; attempt })
          in
          send 0;
          match recovery with
          | None -> ()
          | Some st ->
              Broadcast.Recovery.start st ctx
                ~resend:(fun ~attempt -> send attempt));
      on_message =
        (fun ctx ~via:_ m ->
          match m with
          | Data d -> (
              let v = Network.self ctx in
              (* without recovery there is one attempt, and the root
                 never receives its own payload, so the first delivery
                 is exactly the one that finds [v] unreached *)
              let relay =
                match recovery with
                | None -> not reached.(v)
                | Some st ->
                    Broadcast.Recovery.first_relay st v ~attempt:d.attempt
              in
              reached.(v) <- true;
              if relay then
                (* the message shares the root's labelling: every relay
                   would recompute the identical decomposition from the
                   same tree description, so the paper's "tree
                   description in the message" is carried as the
                   decomposition itself *)
                send_paths ~multicast ~routes ctx d.labelling m;
              match recovery with
              | Some _ when relay -> (
                  (* acknowledge this attempt up the broadcast tree; a
                     lost ack is healed by the next retransmission
                     re-triggering it *)
                  match
                    Broadcast.Recovery.ack_walk (Labels.tree d.labelling) v
                  with
                  | Some walk ->
                      Network.send_walk ~label:"bpaths-ack" ctx ~walk
                        (Ack { src = v })
                  | None -> ())
              | _ -> ())
          | Ack { src } -> (
              match recovery with
              | Some st -> Broadcast.Recovery.ack st ~src
              | None -> ()));
      on_link_change = (fun _ ~peer:_ ~up:_ -> ());
    }
  in
  fun _ -> handlers

let run ?(config = Broadcast.default_config ()) ?(multicast = true) ?precomputed
    ?routes ~graph ~root () =
  (* a fault plan mutates topology mid-run: conservatively drop any
     pre-compiled route table and rebuild headers from walks at send
     time, so chaos never replays routes across the mutation *)
  let routes = if config.Broadcast.chaos <> None then None else routes in
  let recovery = Broadcast.Recovery.create config ~n:(Graph.n graph) ~root in
  Broadcast.execute ~config ~graph ~root
    ~spec:(spec ?precomputed ?routes ?recovery ~multicast)
    ()
