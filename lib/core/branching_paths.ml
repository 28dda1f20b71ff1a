module Graph = Netgraph.Graph
module Network = Hardware.Network

type compiled = { table : Hardware.Anr.route array array; parent : int array }

type msg =
  | Data of { origin : int; routes : compiled; attempt : int }
      (** the broadcast payload; [attempt] > 0 marks a retransmission
          (relays forward once per attempt, acceptance is idempotent) *)
  | Ack of { src : int }  (** delivery acknowledgement back to the origin *)

let tree_for ~view ~root = Netgraph.Spanning.bfs_tree view ~root

let predicted_time_units tree = Labels.max_path_depth (Labels.compute tree)

(* The route table of [root]'s minimum-hop tree over the links
   [edge_up] keeps, in one pass over int arrays — the same tree,
   labelling and chains as [Labels.compute (tree_for ...)], without
   building either:
   (1) a BFS over the CSR that skips masked links; [order] lists the
       reached nodes layer by layer.  The parent of a node is its
       smallest-id neighbour in the previous layer: its first
       discoverer, replaced by any later neighbour of that layer with
       a smaller id; [link] keeps the parent's local link index to the
       child, so no hop needs a [Graph.link_index] search;
   (2) labels in reverse BFS order (children lie one layer deeper, so
       it is a post-order), pushing each label into its parent's two
       largest child labels;
   (3) the same-label child continuing a chain, unique by Lemma 1;
   (4) each head's chains, in ascending child id order (ascending
       local link index in the CSR), written straight into ANR codes:
       a copy on every hop after the first, then the NCU.
   The BFS [parent] array ships beside the table: recovery acks climb
   it to the root. *)
let compile_routes ?edge_up graph ~root =
  let n = Graph.n graph in
  let up e =
    match edge_up with None -> true | Some up -> up (Graph.edge_uid graph e)
  in
  let dist = Array.make n (-1) and order = Array.make n root in
  let parent = Array.make n (-1) and link = Array.make n 0 in
  dist.(root) <- 0;
  let reached = ref 1 and next_out = ref 0 in
  while !next_out < !reached do
    let u = order.(!next_out) in
    incr next_out;
    let below = dist.(u) + 1 in
    for i = 1 to Graph.degree graph u do
      let e = Graph.edge_id graph u i in
      let v = Graph.edge_target graph e in
      let d = dist.(v) in
      if d < 0 then begin
        if up e then begin
          dist.(v) <- below;
          parent.(v) <- u;
          link.(v) <- i;
          order.(!reached) <- v;
          incr reached
        end
      end
      else if d = below && u < parent.(v) && up e then begin
        parent.(v) <- u;
        link.(v) <- i
      end
    done
  done;
  (* a node gets top+1 when >= 2 children carry the maximal child
     label, else top (0 at a leaf) *)
  let label = Array.make n 0
  and top = Array.make n (-1)
  and second = Array.make n (-1) in
  for k = !reached - 1 downto 0 do
    let v = order.(k) in
    let t = top.(v) in
    let l = if t < 0 then 0 else if t = second.(v) then t + 1 else t in
    label.(v) <- l;
    let p = parent.(v) in
    if p >= 0 then
      if l > top.(p) then begin
        second.(p) <- top.(p);
        top.(p) <- l
      end
      else if l > second.(p) then second.(p) <- l
  done;
  (* the labels are final: [top] becomes each node's chain successor
     and [second] its count of chains headed *)
  let chain_next = top and heads = second in
  Array.fill chain_next 0 n (-1);
  Array.fill heads 0 n 0;
  for k = 1 to !reached - 1 do
    let v = order.(k) in
    let p = parent.(v) in
    if label.(v) = label.(p) && p <> root then begin
      (* two same-label children would contradict Lemma 1 *)
      assert (chain_next.(p) = -1);
      chain_next.(p) <- v
    end
    else heads.(p) <- heads.(p) + 1
  done;
  (* the chain a head starts through child [c]: one code per walk
     node, the last one delivering *)
  let chain_route c =
    let len = ref 2 and w = ref c in
    while chain_next.(!w) >= 0 do
      incr len;
      w := chain_next.(!w)
    done;
    let codes = Array.make !len 0 in
    codes.(0) <- Hardware.Anr.code ~link:link.(c) ~copy:false;
    let w = ref c in
    for j = 1 to !len - 2 do
      let s = chain_next.(!w) in
      codes.(j) <- Hardware.Anr.code ~link:link.(s) ~copy:true;
      w := s
    done;
    Hardware.Anr.route_of_codes codes
  in
  let none = Hardware.Anr.route_of_codes [||] in
  let table = Array.make n [||] in
  for u = 0 to n - 1 do
    if heads.(u) > 0 then table.(u) <- Array.make heads.(u) none
  done;
  (* children in descending id order fill each row from its end, so a
     row lists its chains in ascending child order *)
  for c = n - 1 downto 0 do
    let p = parent.(c) in
    if p >= 0 && chain_next.(p) <> c then begin
      heads.(p) <- heads.(p) - 1;
      table.(p).(heads.(p)) <- chain_route c
    end
  done;
  { table; parent }

(* The root's table over its view: the network graph with every link
   the view lacks masked out, so the headers carry the network's local
   link indices and the tree is [tree_for ~view ~root]. *)
let compile_view ~graph ~view ~root =
  if view == graph then compile_routes graph ~root
  else begin
    let in_view = Array.make (Graph.m graph) false in
    for u = 0 to Graph.n graph - 1 do
      for i = 1 to Graph.degree graph u do
        let e = Graph.edge_id graph u i in
        let v = Graph.edge_target graph e in
        if u < v && Graph.has_edge view u v then
          in_view.(Graph.edge_uid graph e) <- true
      done
    done;
    compile_routes ~edge_up:(Array.get in_view) graph ~root
  end

let send_route ctx m route = Network.send ~label:"bpaths" ctx ~route m

(* Ship [m] over every path this node heads.  With multicast one
   activation ships them all (they leave through distinct child links,
   which the PARIS primitive covers); without it (ablation) each further
   path needs its own software activation. *)
let send_paths ~multicast ~paths_sent ctx routes m =
  let paths = routes.table.(Network.self ctx) in
  let count = Array.length paths in
  paths_sent ctx count;
  if multicast then
    for i = 0 to count - 1 do
      send_route ctx m paths.(i)
    done
  else if count > 0 then begin
    send_route ctx m paths.(0);
    let rec drain i =
      if i < count then
        Network.set_timer ~label:"bpaths-extra" ctx ~delay:0.0 (fun () ->
            send_route ctx m paths.(i);
            drain (i + 1))
    in
    drain 1
  end

(* One handler record serves every node of a run: each handler reads
   its node from the context, so a run builds no per-node closures. *)
let spec ?precomputed:_ ?routes ?recovery ~multicast ~reached ~view =
  let paths_sent = Broadcast.run_counter "bpaths.paths_sent" in
  let handlers =
    {
      Network.on_start =
        (fun ctx ->
          let root = Network.self ctx in
          let routes =
            match routes with
            | Some r -> r
            | None ->
                let graph = Network.graph (Network.network ctx) in
                compile_view ~graph ~view ~root
          in
          let send attempt =
            send_paths ~multicast ~paths_sent ctx routes
              (Data { origin = root; routes; attempt })
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
                (* the message carries the root's compiled table, the
                   paper's "tree description in the message": every
                   head ships its own row *)
                send_paths ~multicast ~paths_sent ctx d.routes m;
              match recovery with
              | Some _ when relay ->
                  (* acknowledge this attempt up the broadcast tree; a
                     lost ack is healed by the next retransmission
                     re-triggering it *)
                  Broadcast.Recovery.send_ack ~label:"bpaths-ack" ctx
                    ~parent:d.routes.parent (Ack { src = v })
              | _ -> ())
          | Ack { src } -> (
              match recovery with
              | Some st -> Broadcast.Recovery.ack st ctx ~src
              | None -> ()));
      on_link_change = (fun _ ~peer:_ ~up:_ -> ());
    }
  in
  fun _ -> handlers

let run ?(config = Broadcast.default_config ()) ?(multicast = true) ?precomputed:_
    ?routes ~graph ~root () =
  let recovery = Broadcast.Recovery.create config ~n:(Graph.n graph) ~root in
  Broadcast.execute ?recovery ~config ~graph ~root
    ~spec:(spec ?precomputed:None ?routes ?recovery ~multicast)
    ()
