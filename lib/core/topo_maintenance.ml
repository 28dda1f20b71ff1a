module Graph = Netgraph.Graph
module Network = Hardware.Network
module Anr = Hardware.Anr
module Engine = Sim.Engine

type method_ = Branching | Flood | Dfs_token

type params = {
  method_ : method_;
  period : float;
  max_rounds : int;
  full_view : bool;
  preseed : bool;
  cost : Hardware.Cost_model.t;
  dfs_child_order : (self:int -> children:int list -> int list) option;
  dmax : int option;
  stagger : Sim.Rng.t option;
  trace : Sim.Trace.t option;
  registry : Hardware.Registry.t option;
  reset_on_recover : bool;
  origins : int list option;
  recover : Hardware.Recover.t option;
}

let default_params () =
  {
    method_ = Branching;
    period = 64.0;
    max_rounds = 64;
    full_view = false;
    preseed = false;
    cost = Hardware.Cost_model.new_model ();
    dfs_child_order = None;
    dmax = None;
    stagger = None;
    trace = None;
    registry = None;
    reset_on_recover = false;
    origins = None;
    recover = None;
  }

type event = { at : float; edge : int * int; up : bool }

type outcome = {
  converged : bool;
  rounds : int;
  syscalls : int;
  hops : int;
  drops : int;
  dropped_in_flight : int;
  time : float;
  correct_per_round : int list;
  dbs : Topology.db array;
}

(* The branching-paths relay needs the broadcast's decomposition; the
   origin compiles it once into a route table over its believed tree
   and the message carries the table, so a relay ships its own row
   without rebuilding the tree, the labelling or any header.  Tables
   are never mutated, so a message in flight keeps the one it left
   with.  Flood and depth-first messages carry the empty table. *)
type msg = {
  origin : int;
  seq : int;
  views : Topology.local_view list;
  routes : Anr.route array array;
}

(* Per-node link state, indexed by the local link index (1..deg) of
   the CSR layout: one byte per incident link, updated in O(1) by the
   data-link notification — nothing is re-materialised per round. *)
type node_state = {
  db : Topology.db;
  mutable seq : int;
  local_up : Bytes.t;  (* byte [i-1] = link [i] believed up *)
  relayed : (int * int, unit) Hashtbl.t;
  mutable routes : Anr.route array array;
      (* the branching-paths table of the believed tree rooted here *)
  mutable routes_at : int;  (* the db version [routes] was built at *)
}

let cyclic_child_order ~ring ~self ~children =
  let position v =
    let rec index i = function
      | [] -> None
      | x :: rest -> if x = v then Some i else index (i + 1) rest
    in
    index 0 ring
  in
  match position self with
  | None -> children
  | Some my_pos ->
      let len = List.length ring in
      let rank c =
        match position c with
        | Some p -> ((p - my_pos + len) mod len, 0)
        | None -> (len, c)  (* pendants after ring members *)
      in
      List.sort (fun a b -> compare (rank a) (rank b)) children

let deadlock_example_graph () =
  (* triangle 0-1-2 with pendants 3,4,5 on 0,1,2 respectively *)
  let g =
    Graph.of_edges ~n:6 [ (0, 1); (1, 2); (2, 0); (0, 3); (1, 4); (2, 5) ]
  in
  (g, [ (0, 3); (1, 4); (2, 5) ])

let run ?(params = default_params ()) ?(chaos = []) ~graph ~events () =
  let n = Graph.n graph in
  let engine = Engine.create ~queue_capacity:n () in
  let origin_list =
    match params.origins with
    | None -> None
    | Some [] -> invalid_arg "Topo_maintenance.run: origins must be non-empty"
    | Some l ->
        List.iter
          (fun o ->
            if o < 0 || o >= n then
              invalid_arg "Topo_maintenance.run: origin out of range")
          l;
        Some l
  in
  let is_origin =
    match origin_list with
    | None -> fun _ -> true
    | Some l ->
        let tbl = Hashtbl.create 16 in
        List.iter (fun o -> Hashtbl.replace tbl o ()) l;
        fun v -> Hashtbl.mem tbl v
  in
  (* broadcasters build trees over their believed edges, and the
     all-origin check compares every node's; a pure relay only merges *)
  let states =
    Array.init n (fun v ->
        {
          db =
            Topology.create
              ?graph:(if is_origin v then Some graph else None)
              ();
          seq = 0;
          local_up = Bytes.make (Graph.degree graph v) '\001';
          relayed = Hashtbl.create 16;
          routes = [||];
          routes_at = -1;
        })
  in
  (* The node's own view as a delta: collect the down local links into
     an exact-size sorted array (local indices ascend with peer id in
     the CSR layout).  Healthy nodes share {!Topology.no_downs}. *)
  let own_view v =
    let st = states.(v) in
    let deg = Graph.degree graph v in
    let count = ref 0 in
    for i = 0 to deg - 1 do
      if Bytes.get st.local_up i = '\000' then incr count
    done;
    let downs =
      if !count = 0 then Topology.no_downs
      else begin
        let arr = Array.make !count 0 in
        let j = ref 0 in
        for i = 1 to deg do
          if Bytes.get st.local_up (i - 1) = '\000' then begin
            arr.(!j) <- Graph.edge_target graph (Graph.edge_id graph v i);
            incr j
          end
        done;
        arr
      end
    in
    { Topology.origin = v; seq = st.seq; downs }
  in
  let obs_broadcasts =
    match params.registry with
    | Some r when Hardware.Registry.enabled r ->
        Some
          (Hardware.Registry.counter r "maint.broadcasts"
             ~help:"periodic topology broadcasts initiated")
    | _ -> None
  in
  let robs =
    match params.recover with
    | None -> None
    | Some _ -> Hardware.Recover.obs params.registry
  in
  let tally = Hardware.Recover.tally () in
  (* per-origin resume closures, stashed at start so the recovery hook
     can trigger an immediate out-of-period rebroadcast (DESIGN.md §16);
     the periodic timer chain itself never stops ticking *)
  let resumes : (unit -> unit) option array = Array.make n None in
  (* send over each believed-up local link, in increasing peer order —
     iterates the byte vector, allocating only the one-hop headers *)
  let send_local_links ctx v st ~except m ~label =
    let deg = Graph.degree graph v in
    for i = 1 to deg do
      if Bytes.get st.local_up (i - 1) = '\001' then begin
        let peer = Graph.edge_target graph (Graph.edge_id graph v i) in
        if Some peer <> except then
          Network.send ~label ctx ~route:(Anr.hop i) m
      end
    done
  in
  let send_routes ctx m routes =
    for i = 0 to Array.length routes - 1 do
      Network.send ~label:"topo-bpaths" ctx ~route:routes.(i) m
    done
  in
  let broadcast ctx =
    (match obs_broadcasts with
    | Some c -> Hardware.Registry.incr c
    | None -> ());
    let v = Network.self ctx in
    let st = states.(v) in
    st.seq <- st.seq + 1;
    let own = own_view v in
    Topology.set_own st.db own;
    let views =
      if params.full_view then Topology.all_views st.db else [ own ]
    in
    match params.method_ with
    | Flood ->
        let m = { origin = v; seq = st.seq; views; routes = [||] } in
        Hashtbl.replace st.relayed (v, st.seq) ();
        send_local_links ctx v st ~except:None m ~label:"topo-flood"
    | Branching ->
        (* the headers are a function of the believed edge set alone:
           rebuild them only when it moved *)
        let version = Topology.version st.db in
        if st.routes_at <> version then begin
          st.routes <-
            (Branching_paths.compile_routes graph ~root:v
               ~edge_up:(Topology.believes st.db))
              .table;
          st.routes_at <- version
        end;
        let m = { origin = v; seq = st.seq; views; routes = st.routes } in
        Hashtbl.replace st.relayed (v, st.seq) ();
        send_routes ctx m st.routes.(v)
    | Dfs_token -> (
        let tree =
          Netgraph.Spanning.bfs_tree graph ~root:v
            ~edge_up:(Topology.believes st.db)
        in
        match
          Walks.truncate (Walks.euler_tour ?order:params.dfs_child_order tree)
        with
        | [] | [ _ ] -> ()
        | tour ->
            let m = { origin = v; seq = st.seq; views; routes = [||] } in
            let route =
              Anr.of_walk_marked (Network.graph (Network.network ctx))
                (Walks.mark_first_visits tour)
            in
            Network.send ~label:"topo-dfs" ctx ~route m)
  in
  let relay st m =
    if not (Hashtbl.mem st.relayed (m.origin, m.seq)) then begin
      Hashtbl.replace st.relayed (m.origin, m.seq) ();
      true
    end
    else false
  in
  let handlers v =
    {
      Network.on_start =
        (fun ctx ->
          let st = states.(v) in
          (* links that failed before the start (preset faults) *)
          let net = Network.network ctx in
          let deg = Graph.degree graph v in
          for i = 1 to deg do
            let peer = Graph.edge_target graph (Graph.edge_id graph v i) in
            if not (Network.link_is_up net v peer) then
              Bytes.set st.local_up (i - 1) '\000'
          done;
          Topology.set_own st.db (own_view v);
          if is_origin v then begin
            if params.recover <> None then
              resumes.(v) <-
                Some
                  (fun () ->
                    Network.set_timer ~label:"topo-resume" ctx ~delay:0.0
                      (fun () -> broadcast ctx));
            let rec rearm () =
              Network.set_timer ~label:"topo-period" ctx ~delay:params.period
                (fun () ->
                  broadcast ctx;
                  rearm ())
            in
            match params.stagger with
            | None ->
                broadcast ctx;
                rearm ()
            | Some rng ->
                (* first broadcast at a random phase within the period *)
                Network.set_timer ~label:"topo-stagger" ctx
                  ~delay:(Sim.Rng.float rng params.period) (fun () ->
                    broadcast ctx;
                    rearm ())
          end);
      on_message =
        (fun ctx ~via m ->
          let st = states.(v) in
          ignore (Topology.update_all st.db m.views : bool);
          match params.method_ with
          | Dfs_token -> ()
          | Flood ->
              if relay st m then
                send_local_links ctx v st ~except:via m ~label:"topo-flood"
          | Branching -> if relay st m then send_routes ctx m m.routes.(v));
      on_link_change =
        (fun _ctx ~peer ~up ->
          let st = states.(v) in
          Bytes.set st.local_up
            (Graph.link_index graph v peer - 1)
            (if up then '\001' else '\000');
          Topology.set_own st.db (own_view v));
    }
  in
  let net =
    Network.create ?trace:params.trace ?registry:params.registry
      ?dmax:params.dmax ~dmax_policy:`Drop ~engine ~cost:params.cost ~graph
      ~handlers ()
  in
  if params.preseed then begin
    (* full pre-failure knowledge at every node, as ONE shared seq-0
       base array — Θ(n) total, not Θ(n²) hashtable entries *)
    let base =
      Array.init n (fun o ->
          { Topology.origin = o; seq = 0; downs = Topology.no_downs })
    in
    Array.iter (fun st -> Topology.attach_base st.db base) states
  end;
  (* the link events arm ahead of the chaos plan, through the same
     Fault_plan, so both get the recovery hook below *)
  let plan =
    List.map
      (fun { at; edge = u, v; up } -> Hardware.Fault_plan.Link_set { at; u; v; up })
      events
    @ chaos
  in
  let on_node ~node ~alive =
    if alive && params.reset_on_recover then begin
      (* the paper's recovering NCU rejoins with no remote knowledge;
         its own sequence counter survives the crash, or its first
         post-recovery views would lose the freshness race against
         stale entries other nodes still hold (the ARPANET
         sequence-number lesson) *)
      let st = states.(node) in
      Topology.clear st.db;
      Hashtbl.reset st.relayed;
      Topology.set_own st.db (own_view node)
    end;
    if alive then
      (* round resumption: a recovering origin rebroadcasts now rather
         than waiting out the rest of its period — re-seeding its own
         (possibly just reset) view into the network immediately *)
      match resumes.(node) with
      | Some resume ->
          tally.resumes <- tally.resumes + 1;
          resume ()
      | None -> ()
  in
  Hardware.Fault_plan.arm ~on_node net plan;
  Network.start_all net;
  let correct_count =
    match origin_list with
    | None ->
        (* the [T77] check against one live-link snapshot per round; a
           node whose believed edges equal the live ones costs one
           bitset compare *)
        fun () ->
          let live = Topology.live graph ~up:(Network.link_is_up net) in
          Graph.fold_nodes
            (fun v acc ->
              if Topology.consistent_live states.(v).db live ~node:v then
                acc + 1
              else acc)
            graph 0
    | Some origins ->
        (* dissemination check for the restricted-origin mode: a node
           is correct when it holds every origin's freshest view —
           Θ(n·k) per round, no believed topology involved *)
        fun () ->
          Graph.fold_nodes
            (fun v acc ->
              let covered =
                List.for_all
                  (fun o ->
                    match Topology.find states.(v).db o with
                    | Some view -> view.Topology.seq >= states.(o).seq
                    | None -> false)
                  origins
              in
              if covered then acc + 1 else acc)
            graph 0
  in
  let epsilon = 1e-6 in
  let rec rounds_loop k progress =
    let horizon = (float_of_int k *. params.period) -. epsilon in
    ignore (Engine.run ~until:horizon engine : Engine.outcome);
    let correct = correct_count () in
    let progress = correct :: progress in
    if correct = n then (true, k, progress)
    else if k >= params.max_rounds then (false, k, progress)
    else rounds_loop (k + 1) progress
  in
  let converged, rounds, progress = rounds_loop 1 [] in
  Network.publish_distributions net;
  Hardware.Recover.publish robs tally;
  (match params.registry with
  | Some r when Hardware.Registry.enabled r ->
      Hardware.Registry.set
        (Hardware.Registry.gauge r "maint.rounds"
           ~help:"broadcast rounds at the final convergence check")
        (float_of_int rounds)
  | _ -> ());
  (* No [Network.retire] here, unlike the other protocol runs: a fresh
     engine's per-run queue regrowth is the direct major allocation
     that paces the major GC in this workload, and with a spare engine
     the maintenance benchmark's [peak_heap_mb], a top-of-heap reading,
     rose 28%.  See ROADMAP, the next benchmark revision. *)
  let m = Network.metrics net in
  {
    converged;
    rounds;
    syscalls = Hardware.Metrics.syscalls m;
    hops = Hardware.Metrics.hops m;
    drops = Hardware.Metrics.drops m;
    dropped_in_flight = Hardware.Metrics.dropped_in_flight m;
    time = Engine.now engine;
    correct_per_round = List.rev progress;
    dbs = Array.map (fun st -> st.db) states;
  }
