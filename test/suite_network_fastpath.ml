(* Differential parity suite for the switching-fabric fast path.

   [Refnet] below is a faithful copy of the seed implementation of
   Hardware.Network (tuple-keyed hash tables for link records and
   per-directed-link FIFO clocks, list-walk ANR consumption).  Every
   scenario is a functor over the network signature and is executed on
   both implementations, the headers written as element lists (the
   list form of [Suite_anr.Ref]) and handed to the fast path packed;
   the suite asserts that the fast path produces
   the {e identical} trace event sequence, metrics counters, and
   completion time.  Because the simulation engine's heap is stable,
   any divergence in scheduling order or event content shows up as a
   trace mismatch. *)

module A = Suite_anr.Ref
module CM = Hardware.Cost_model
module Metrics = Hardware.Metrics
module Graph = Netgraph.Graph
module B = Netgraph.Builders

(* -- the network signature the scenarios run against ----------------- *)

module type NET = sig
  type 'msg t
  type 'msg context

  type 'msg handlers = {
    on_start : 'msg context -> unit;
    on_message : 'msg context -> via:int option -> 'msg -> unit;
    on_link_change : 'msg context -> peer:int -> up:bool -> unit;
  }

  val create :
    ?trace:Sim.Trace.t ->
    ?registry:Hardware.Registry.t ->
    ?dmax:int ->
    ?dmax_policy:[ `Raise | `Drop ] ->
    ?detection_delay:float ->
    engine:Sim.Engine.t ->
    cost:CM.t ->
    graph:Graph.t ->
    handlers:(int -> 'msg handlers) ->
    unit ->
    'msg t

  val metrics : 'msg t -> Metrics.t
  val start : ?label:string -> 'msg t -> int -> unit
  val start_all : ?label:string -> 'msg t -> unit
  val set_link : 'msg t -> int -> int -> up:bool -> unit
  val preset_link : 'msg t -> int -> int -> up:bool -> unit
  val fail_node : 'msg t -> int -> unit
  val restore_node : 'msg t -> int -> unit
  val self : 'msg context -> int
  val now : 'msg context -> float
  val send : ?label:string -> 'msg context -> route:A.elem list -> 'msg -> unit

  val send_walk :
    ?label:string ->
    ?copy_at:(int -> bool) ->
    'msg context ->
    walk:int list ->
    'msg ->
    unit

  val neighbors : 'msg context -> (int * bool) list
  val set_timer : ?label:string -> 'msg context -> delay:float -> (unit -> unit) -> unit
end

(* -- the seed implementation, verbatim -------------------------------- *)

module Refnet : NET = struct
  type link_record = { mutable up : bool; mutable epoch : int }

  type 'msg t = {
    graph : Graph.t;
    engine : Sim.Engine.t;
    cost : CM.t;
    metrics : Metrics.t;
    trace : Sim.Trace.t;
    dmax : int option;
    dmax_policy : [ `Raise | `Drop ];
    detection_delay : float;
    handlers : 'msg handlers array;
    links : (int * int, link_record) Hashtbl.t;  (* key: (min, max) *)
    fifo : (int * int, float) Hashtbl.t;  (* per directed link *)
    ncu_busy_until : float array;
    dead : (int, unit) Hashtbl.t;
    mutable next_msg_id : int;
  }

  and 'msg context = { net : 'msg t; node : int }

  and 'msg handlers = {
    on_start : 'msg context -> unit;
    on_message : 'msg context -> via:int option -> 'msg -> unit;
    on_link_change : 'msg context -> peer:int -> up:bool -> unit;
  }

  (* the seed predates the registry; scenarios never pass one *)
  let create ?trace ?registry:_ ?dmax ?(dmax_policy = `Raise)
      ?(detection_delay = 0.0) ~engine ~cost ~graph ~handlers () =
    let n = Graph.n graph in
    let links = Hashtbl.create (Graph.m graph) in
    List.iter
      (fun (u, v) -> Hashtbl.replace links (u, v) { up = true; epoch = 0 })
      (Graph.edges graph);
    {
      graph;
      engine;
      cost;
      metrics = Metrics.create ~n;
      trace = (match trace with Some t -> t | None -> Sim.Trace.disabled ());
      dmax;
      dmax_policy;
      detection_delay;
      handlers = Array.init n handlers;
      links;
      fifo = Hashtbl.create (2 * Graph.m graph);
      ncu_busy_until = Array.make n 0.0;
      dead = Hashtbl.create 4;
      next_msg_id = 0;
    }

  let metrics t = t.metrics
  let link_key u v = (min u v, max u v)

  let link_record t u v =
    match Hashtbl.find_opt t.links (link_key u v) with
    | Some r -> r
    | None ->
        invalid_arg (Printf.sprintf "Network: no link between %d and %d" u v)

  let link_is_up t u v = (link_record t u v).up

  let preset_link t u v ~up =
    let record = link_record t u v in
    if record.up <> up then begin
      record.up <- up;
      record.epoch <- record.epoch + 1
    end

  let activate t v ~label ~kind f =
    let arrival = Sim.Engine.now t.engine in
    let start = Float.max arrival t.ncu_busy_until.(v) in
    let finish = start +. t.cost.CM.sys_delay () in
    t.ncu_busy_until.(v) <- finish;
    Sim.Engine.schedule_at t.engine ~time:finish (fun () ->
        Metrics.record_syscall t.metrics ~node:v ~label;
        (match kind with
        | `Message msg_id ->
            Sim.Trace.record t.trace
              (Sim.Trace.Receive { node = v; time = finish; msg_id; label })
        | `Software ->
            Sim.Trace.record t.trace
              (Sim.Trace.Syscall { node = v; time = finish; label }));
        f ())

  let deliver_to_ncu t v ~via ~label ~msg_id payload =
    activate t v ~label ~kind:(`Message msg_id) (fun () ->
        let ctx = { net = t; node = v } in
        t.handlers.(v).on_message ctx ~via payload)

  let rec switch t u ~via header ~label ~msg_id payload =
    match header with
    | [] ->
        Metrics.record_drop t.metrics;
        Sim.Trace.record t.trace
          (Sim.Trace.Drop
             { node = u; time = Sim.Engine.now t.engine; reason = "empty header" })
    | { A.link = 0; copy = false } :: rest ->
        if rest <> [] then begin
          Metrics.record_drop t.metrics;
          Sim.Trace.record t.trace
            (Sim.Trace.Drop
               {
                 node = u;
                 time = Sim.Engine.now t.engine;
                 reason = "elements after NCU delivery";
               })
        end
        else deliver_to_ncu t u ~via ~label ~msg_id payload
    | { A.link = 0; copy = true } :: _ ->
        Metrics.record_drop t.metrics;
        Sim.Trace.record t.trace
          (Sim.Trace.Drop
             {
               node = u;
               time = Sim.Engine.now t.engine;
               reason = "copy flag on NCU link";
             })
    | { A.link; copy } :: rest -> (
        if copy then deliver_to_ncu t u ~via ~label ~msg_id payload;
        match Graph.peer_via t.graph u link with
        | exception Not_found ->
            Metrics.record_drop t.metrics;
            Sim.Trace.record t.trace
              (Sim.Trace.Drop
                 {
                   node = u;
                   time = Sim.Engine.now t.engine;
                   reason = Printf.sprintf "dangling link id %d" link;
                 })
        | v ->
            let record = link_record t u v in
            if not record.up then begin
              Metrics.record_drop t.metrics;
              Sim.Trace.record t.trace
                (Sim.Trace.Drop
                   {
                     node = u;
                     time = Sim.Engine.now t.engine;
                     reason = Printf.sprintf "link to %d inactive" v;
                   })
            end
            else begin
              let epoch = record.epoch in
              let now = Sim.Engine.now t.engine in
              let proposed = now +. t.cost.CM.hop_delay () in
              let previous =
                Option.value ~default:neg_infinity
                  (Hashtbl.find_opt t.fifo (u, v))
              in
              let arrival = Float.max proposed previous in
              Hashtbl.replace t.fifo (u, v) arrival;
              Metrics.record_hop t.metrics;
              Sim.Engine.schedule_at t.engine ~time:arrival (fun () ->
                  if record.up && record.epoch = epoch then begin
                    Sim.Trace.record t.trace
                      (Sim.Trace.Hop { src = u; dst = v; time = arrival; msg_id });
                    switch t v ~via:(Some u) rest ~label ~msg_id payload
                  end
                  else begin
                    Metrics.record_drop t.metrics;
                    Sim.Trace.record t.trace
                      (Sim.Trace.Drop
                         {
                           node = v;
                           time = arrival;
                           reason = "lost in flight (link failed)";
                         })
                  end)
            end)

  let start ?(label = "start") t v =
    activate t v ~label ~kind:`Software (fun () ->
        let ctx = { net = t; node = v } in
        t.handlers.(v).on_start ctx)

  let start_all ?(label = "start") t =
    Graph.iter_nodes (fun v -> start ~label t v) t.graph

  let set_link t u v ~up =
    let record = link_record t u v in
    if record.up <> up then begin
      record.up <- up;
      record.epoch <- record.epoch + 1;
      Sim.Trace.record t.trace
        (Sim.Trace.Link_change
           { u = min u v; v = max u v; up; time = Sim.Engine.now t.engine });
      let notify endpoint peer =
        Sim.Engine.schedule t.engine ~delay:t.detection_delay (fun () ->
            activate t endpoint ~label:"link-change" ~kind:`Software (fun () ->
                let ctx = { net = t; node = endpoint } in
                t.handlers.(endpoint).on_link_change ctx ~peer ~up))
      in
      notify u v;
      notify v u
    end

  let node_is_alive t v = not (Hashtbl.mem t.dead v)

  let fail_node t v =
    if node_is_alive t v then begin
      Hashtbl.replace t.dead v ();
      List.iter (fun u -> set_link t v u ~up:false) (Graph.neighbors t.graph v)
    end

  let restore_node t v =
    if not (node_is_alive t v) then begin
      Hashtbl.remove t.dead v;
      List.iter
        (fun u -> if node_is_alive t u then set_link t v u ~up:true)
        (Graph.neighbors t.graph v)
    end

  let self ctx = ctx.node
  let now ctx = Sim.Engine.now ctx.net.engine

  let send ?(label = "") ctx ~route payload =
    let t = ctx.net in
    let oversized =
      match t.dmax with
      | Some bound -> List.length route > bound
      | None -> false
    in
    if oversized && t.dmax_policy = `Raise then
      invalid_arg
        (Printf.sprintf "Network.send: header length %d exceeds dmax %d"
           (List.length route)
           (Option.get t.dmax))
    else if oversized then begin
      Metrics.record_drop t.metrics;
      Sim.Trace.record t.trace
        (Sim.Trace.Drop
           {
             node = ctx.node;
             time = Sim.Engine.now t.engine;
             reason = "header exceeds dmax";
           })
    end
    else begin
      let msg_id = t.next_msg_id in
      t.next_msg_id <- msg_id + 1;
      Metrics.record_send t.metrics ~header_len:(List.length route);
      Sim.Trace.record t.trace
        (Sim.Trace.Send
           { node = ctx.node; time = Sim.Engine.now t.engine; msg_id; label });
      switch t ctx.node ~via:None route ~label ~msg_id payload
    end

  let send_walk ?label ?copy_at ctx ~walk payload =
    (match walk with
    | first :: _ when first = ctx.node -> ()
    | _ -> invalid_arg "Network.send_walk: walk must start at the sender");
    let route = A.of_walk ?copy_at ctx.net.graph walk in
    send ?label ctx ~route payload

  let neighbors ctx =
    List.map
      (fun v -> (v, link_is_up ctx.net ctx.node v))
      (Graph.neighbors ctx.net.graph ctx.node)

  let set_timer ?(label = "timer") ctx ~delay f =
    let t = ctx.net in
    Sim.Engine.schedule t.engine ~delay (fun () ->
        activate t ctx.node ~label ~kind:`Software f)
end

(* -- scenario outcomes ------------------------------------------------ *)

type outcome = {
  events : Sim.Trace.event list;
  time : float;
  hops : int;
  syscalls : int;
  sends : int;
  drops : int;
  max_header : int;
  per_node : int list;
  labelled : (string * int) list;
}

let labels_of_interest =
  [ "start"; "flood"; "bpaths"; "probe"; "timer"; "link-change"; "reflood" ]

let outcome_of ~graph ~trace ~engine metrics =
  {
    events = Sim.Trace.events trace;
    time = Sim.Engine.now engine;
    hops = Metrics.hops metrics;
    syscalls = Metrics.syscalls metrics;
    sends = Metrics.sends metrics;
    drops = Metrics.drops metrics;
    max_header = Metrics.max_header metrics;
    per_node =
      List.init (Graph.n graph) (fun v -> Metrics.syscalls_at metrics v);
    labelled =
      List.map (fun l -> (l, Metrics.syscalls_labelled metrics l))
        labels_of_interest;
  }

let event = Alcotest.testable Sim.Trace.pp_event ( = )

let check_parity (fast : outcome) (reference : outcome) =
  Alcotest.(check (list event)) "trace event sequence" reference.events
    fast.events;
  Alcotest.(check (float 0.0)) "completion time" reference.time fast.time;
  Alcotest.(check int) "hops" reference.hops fast.hops;
  Alcotest.(check int) "syscalls" reference.syscalls fast.syscalls;
  Alcotest.(check int) "sends" reference.sends fast.sends;
  Alcotest.(check int) "drops" reference.drops fast.drops;
  Alcotest.(check int) "max_header" reference.max_header fast.max_header;
  Alcotest.(check (list int)) "per-node syscalls" reference.per_node
    fast.per_node;
  Alcotest.(check (list (pair string int)))
    "per-label syscalls" reference.labelled fast.labelled

(* -- the scenarios, functorised over the implementation --------------- *)

module Scenarios (N : NET) = struct
  let finish ~graph ~trace ~engine net =
    (match Sim.Engine.run engine with
    | Sim.Engine.Quiescent -> ()
    | _ -> Alcotest.fail "scenario did not quiesce");
    outcome_of ~graph ~trace ~engine (N.metrics net)

  (* 1. ARPANET-style flooding broadcast on a random connected graph,
     new-model costs (C=0, P=1): stresses NCU FIFO serialisation and
     simultaneous multicast injection. *)
  let flooding () =
    let graph =
      B.random_connected (Sim.Rng.create ~seed:7) ~n:24 ~extra_edges:12
    in
    let engine = Sim.Engine.create () in
    let trace = Sim.Trace.create () in
    let seen = Array.make (Graph.n graph) false in
    let forward ctx ~except m =
      let self = N.self ctx in
      List.iter
        (fun (peer, up) ->
          if up && Some peer <> except then
            N.send_walk ~label:"flood" ctx ~walk:[ self; peer ] m)
        (N.neighbors ctx)
    in
    let handlers v =
      {
        N.on_start = (fun ctx -> forward ctx ~except:None (N.self ctx));
        on_message =
          (fun ctx ~via m ->
            if not seen.(v) then begin
              seen.(v) <- true;
              forward ctx ~except:via m
            end);
        on_link_change = (fun _ ~peer:_ ~up:_ -> ());
      }
    in
    let net =
      N.create ~trace ~engine ~cost:(CM.new_model ()) ~graph ~handlers ()
    in
    N.start net 0;
    finish ~graph ~trace ~engine net

  (* 2. Branching-path broadcast with selective copies along BFS-tree
     walks of a grid, deterministic costs (C=2, P=1): stresses the copy flag
     and multi-hop cursor advancement. *)
  let copy_routes () =
    let graph = B.grid ~rows:5 ~cols:5 in
    let engine = Sim.Engine.create () in
    let trace = Sim.Trace.create () in
    let tree = Netgraph.Spanning.bfs_tree graph ~root:0 in
    let labelling = Core.Labels.compute tree in
    let handlers _ =
      {
        N.on_start =
          (fun ctx ->
            List.iter
              (fun path ->
                N.send_walk ~label:"bpaths" ~copy_at:(fun _ -> true) ctx
                  ~walk:path 0)
              (Core.Labels.paths_from labelling (N.self ctx)));
        on_message = (fun _ ~via:_ _ -> ());
        on_link_change = (fun _ ~peer:_ ~up:_ -> ());
      }
    in
    let net =
      N.create ~trace ~engine
        ~cost:(CM.deterministic ~c:2.0 ~p:1.0)
        ~graph ~handlers ()
    in
    N.start net 0;
    finish ~graph ~trace ~engine net

  (* 3. FIFO ordering under zero hop delay: many same-instant packets
     down one directed link plus cross-traffic; the per-link FIFO
     clock, not the hop delay, must order deliveries. *)
  let zero_hop_fifo () =
    let graph = B.path 6 in
    let engine = Sim.Engine.create () in
    let trace = Sim.Trace.create () in
    let handlers v =
      {
        N.on_start =
          (fun ctx ->
            if v = 0 then begin
              for i = 1 to 4 do
                N.send_walk ~label:"probe" ctx ~walk:[ 0; 1; 2; 3 ] i
              done;
              N.send_walk ~label:"probe" ctx ~walk:[ 0; 1 ] 99
            end
            else if v = 5 then
              N.send_walk ~label:"probe" ctx ~walk:[ 5; 4; 3; 2 ] 7);
        on_message =
          (fun ctx ~via:_ m ->
            (* first delivery at node 3 echoes one packet back *)
            if N.self ctx = 3 && m = 1 then
              N.send_walk ~label:"probe" ctx ~walk:[ 3; 2; 1; 0 ] 42);
        on_link_change = (fun _ ~peer:_ ~up:_ -> ());
      }
    in
    let net =
      N.create ~trace ~engine ~cost:(CM.new_model ()) ~graph ~handlers ()
    in
    N.start net 0;
    N.start net 5;
    finish ~graph ~trace ~engine net

  (* 4. Epoch-based in-flight loss: packets crossing a slow link are
     lost when the link fails mid-flight, and survive a fail/recover
     cycle only if the epoch matches. *)
  let epoch_drop () =
    let graph = B.path 4 in
    let engine = Sim.Engine.create () in
    let trace = Sim.Trace.create () in
    let handlers v =
      {
        N.on_start =
          (fun ctx ->
            if v = 0 then begin
              N.send_walk ~label:"probe" ctx ~walk:[ 0; 1; 2; 3 ] 1;
              N.set_timer ~label:"timer" ctx ~delay:20.0 (fun () ->
                  N.send_walk ~label:"probe" ctx ~walk:[ 0; 1; 2; 3 ] 2)
            end);
        on_message = (fun _ ~via:_ _ -> ());
        on_link_change = (fun _ ~peer:_ ~up:_ -> ());
      }
    in
    let net =
      N.create ~trace ~engine ~detection_delay:1.0
        ~cost:(CM.deterministic ~c:8.0 ~p:1.0)
        ~graph ~handlers ()
    in
    (* the first packet reaches link 1-2 around t=9 and is in flight
       until t=17; kill the link under it, then restore before the
       second packet arrives *)
    Sim.Engine.schedule engine ~delay:12.0 (fun () ->
        N.set_link net 1 2 ~up:false);
    Sim.Engine.schedule engine ~delay:16.0 (fun () ->
        N.set_link net 1 2 ~up:true);
    N.start net 0;
    finish ~graph ~trace ~engine net

  (* 5. Maintenance-style node churn on a torus: nodes re-flood their
     neighbourhood on every detected link change; a node fails (all
     links drop, in-flight packets lost) and later recovers. *)
  let node_churn () =
    let graph = B.torus ~rows:4 ~cols:4 in
    let engine = Sim.Engine.create () in
    let trace = Sim.Trace.create () in
    let reflood ctx =
      let self = N.self ctx in
      List.iter
        (fun (peer, up) ->
          if up then N.send_walk ~label:"reflood" ctx ~walk:[ self; peer ] 0)
        (N.neighbors ctx)
    in
    let handlers _ =
      {
        N.on_start = reflood;
        on_message = (fun _ ~via:_ _ -> ());
        on_link_change = (fun ctx ~peer:_ ~up:_ -> reflood ctx);
      }
    in
    let net =
      N.create ~trace ~engine ~detection_delay:2.0
        ~cost:(CM.deterministic ~c:3.0 ~p:1.0)
        ~graph ~handlers ()
    in
    Sim.Engine.schedule engine ~delay:5.0 (fun () -> N.fail_node net 5);
    Sim.Engine.schedule engine ~delay:40.0 (fun () -> N.restore_node net 5);
    N.start_all net;
    finish ~graph ~trace ~engine net

  (* 6. dmax oversize handling under the `Drop policy, plus boundary
     fits-exactly sends. *)
  let dmax_oversize () =
    let graph = B.path 6 in
    let engine = Sim.Engine.create () in
    let trace = Sim.Trace.create () in
    let handlers v =
      {
        N.on_start =
          (fun ctx ->
            if v = 0 then begin
              (* length 6 > dmax = 4: refused by the hardware *)
              N.send_walk ~label:"probe" ctx ~walk:[ 0; 1; 2; 3; 4; 5 ] 0;
              (* length exactly 4: accepted *)
              N.send_walk ~label:"probe" ctx ~walk:[ 0; 1; 2; 3 ] 1
            end);
        on_message = (fun _ ~via:_ _ -> ());
        on_link_change = (fun _ ~peer:_ ~up:_ -> ());
      }
    in
    let net =
      N.create ~trace ~engine ~dmax:4 ~dmax_policy:`Drop
        ~cost:(CM.new_model ()) ~graph ~handlers ()
    in
    N.start net 0;
    finish ~graph ~trace ~engine net

  (* 7. Malformed and unroutable headers: empty route, elements after
     the NCU element, copy flag on the NCU link, dangling link id, and
     a send over a preset-inactive link.  Each non-empty header ends in
     the NCU element, as a packed route must. *)
  let malformed_headers () =
    let graph = B.star 5 in
    let engine = Sim.Engine.create () in
    let trace = Sim.Trace.create () in
    let handlers v =
      {
        N.on_start =
          (fun ctx ->
            if v = 0 then begin
              N.send ~label:"probe" ctx ~route:[] 0;
              N.send ~label:"probe" ctx
                ~route:[ A.deliver; { A.link = 1; copy = false }; A.deliver ]
                1;
              N.send ~label:"probe" ctx
                ~route:[ { A.link = 0; copy = true }; A.deliver ]
                2;
              N.send ~label:"probe" ctx
                ~route:[ { A.link = 9; copy = false }; A.deliver ]
                3;
              (* link 0-2 is preset down below *)
              N.send_walk ~label:"probe" ctx ~walk:[ 0; 2 ] 4;
              N.send_walk ~label:"probe" ctx ~walk:[ 0; 1 ] 5
            end);
        on_message = (fun _ ~via:_ _ -> ());
        on_link_change = (fun _ ~peer:_ ~up:_ -> ());
      }
    in
    let net =
      N.create ~trace ~engine ~cost:(CM.new_model ()) ~graph ~handlers ()
    in
    N.preset_link net 0 2 ~up:false;
    N.start net 0;
    finish ~graph ~trace ~engine net

  let all =
    [
      ("flooding broadcast", flooding);
      ("copy routes (branching paths)", copy_routes);
      ("zero-hop-delay FIFO", zero_hop_fifo);
      ("epoch drop in flight", epoch_drop);
      ("node churn (maintenance)", node_churn);
      ("dmax oversize", dmax_oversize);
      ("malformed headers", malformed_headers);
    ]
end

(* The data-link view the scenarios' handlers read, over the fast
   path's own link state: every adjacent node with its link's state;
   list headers and walks go out packed. *)
module Fastnet = struct
  include Hardware.Network

  let send ?label ctx ~route m = send ?label ctx ~route:(A.route route) m

  let send_walk ?label ?copy_at ctx ~walk m =
    send_walk ?label ?copy_at ctx ~walk:(Array.of_list walk) m

  let neighbors ctx =
    let net = network ctx and u = self ctx in
    List.map (fun v -> (v, link_is_up net u v)) (Graph.neighbors (graph net) u)
end

module Fast = Scenarios (Fastnet)
module Slow = Scenarios (Refnet)

let parity_tests =
  List.map2
    (fun (name, fast) (_, slow) ->
      Alcotest.test_case name `Quick (fun () -> check_parity (fast ()) (slow ())))
    Fast.all Slow.all

(* -- end-to-end goldens captured from the seed implementation --------- *)

(* These numbers were produced by the pre-fast-path (hashtable + list
   walk) implementation on the same inputs; the fast path must
   reproduce them exactly. *)

let check_broadcast name (r : Core.Broadcast.result)
    (time, syscalls, hops, sends, drops, max_header) =
  Alcotest.(check (float 1e-9)) (name ^ " time") time r.time;
  Alcotest.(check int) (name ^ " syscalls") syscalls r.syscalls;
  Alcotest.(check int) (name ^ " hops") hops r.hops;
  Alcotest.(check int) (name ^ " sends") sends r.sends;
  Alcotest.(check int) (name ^ " drops") drops r.drops;
  Alcotest.(check int) (name ^ " max_header") max_header r.max_header;
  Alcotest.(check bool) (name ^ " coverage") true (Core.Broadcast.all_reached r)

let test_seed_goldens () =
  let g64 =
    B.random_connected (Sim.Rng.create ~seed:42) ~n:64 ~extra_edges:32
  in
  check_broadcast "flooding-g64"
    (Core.Flooding.run ~graph:g64 ~root:0 ())
    (8.0, 128, 127, 127, 0, 2);
  check_broadcast "bpaths-g64"
    (Core.Branching_paths.run ~graph:g64 ~root:0 ())
    (4.0, 64, 63, 43, 0, 4);
  check_broadcast "dfs-g64"
    (Core.Dfs_broadcast.run ~graph:g64 ~root:0 ())
    (2.0, 64, 124, 1, 0, 125);
  let grid = B.grid ~rows:6 ~cols:6 in
  check_broadcast "flooding-grid6x6"
    (Core.Flooding.run ~graph:grid ~root:0 ())
    (12.0, 86, 85, 85, 0, 2);
  check_broadcast "bpaths-grid6x6"
    (Core.Branching_paths.run ~graph:grid ~root:0 ())
    (3.0, 36, 35, 7, 0, 7)

let test_seed_golden_election () =
  let e = Core.Election.run ~graph:(B.ring 33) () in
  Alcotest.(check int) "leader" 32 e.leader;
  Alcotest.(check int) "election syscalls" 151 e.election_syscalls;
  Alcotest.(check int) "total syscalls" 216 e.total_syscalls;
  Alcotest.(check int) "hops" 731 e.hops;
  Alcotest.(check (float 1e-9)) "time" 43.0 e.time;
  Alcotest.(check int) "tours" 64 e.tours;
  Alcotest.(check int) "captures" 32 e.captures

let test_seed_golden_maintenance () =
  let params =
    { (Core.Topo_maintenance.default_params ()) with max_rounds = 2 }
  in
  let gm =
    B.random_connected (Sim.Rng.create ~seed:1) ~n:24 ~extra_edges:12
  in
  let m = Core.Topo_maintenance.run ~params ~graph:gm ~events:[] () in
  Alcotest.(check int) "rounds" 2 m.rounds;
  Alcotest.(check int) "syscalls" 338 m.syscalls;
  Alcotest.(check int) "hops" 290 m.hops;
  Alcotest.(check (float 1e-3)) "time" 128.0 m.time;
  let me =
    Core.Topo_maintenance.run ~params ~graph:gm
      ~events:[ { Core.Topo_maintenance.at = 70.0; edge = (0, 1); up = false } ]
      ()
  in
  Alcotest.(check int) "syscalls after failure" 338 me.syscalls;
  Alcotest.(check int) "hops after failure" 288 me.hops;
  Alcotest.(check (float 1e-3)) "time after failure" 128.0 me.time

(* dmax `Raise parity: both implementations reject the same way *)
let test_dmax_raise () =
  let graph = B.path 4 in
  let attempt create_send =
    match create_send () with
    | exception Invalid_argument msg -> msg
    | () -> Alcotest.fail "expected Invalid_argument"
  in
  let run_fast () =
    let engine = Sim.Engine.create () in
    let handlers _ =
      {
        Hardware.Network.on_start =
          (fun ctx ->
            Hardware.Network.send_walk ctx ~walk:[| 0; 1; 2; 3 |] 0);
        on_message = (fun _ ~via:_ _ -> ());
        on_link_change = (fun _ ~peer:_ ~up:_ -> ());
      }
    in
    let net =
      Hardware.Network.create ~dmax:2 ~engine ~cost:(CM.new_model ()) ~graph
        ~handlers ()
    in
    Hardware.Network.start net 0;
    ignore (Sim.Engine.run engine : Sim.Engine.outcome)
  in
  let run_slow () =
    let engine = Sim.Engine.create () in
    let handlers _ =
      {
        Refnet.on_start =
          (fun ctx -> Refnet.send_walk ctx ~walk:[ 0; 1; 2; 3 ] 0);
        on_message = (fun _ ~via:_ _ -> ());
        on_link_change = (fun _ ~peer:_ ~up:_ -> ());
      }
    in
    let net =
      Refnet.create ~dmax:2 ~engine ~cost:(CM.new_model ()) ~graph ~handlers ()
    in
    Refnet.start net 0;
    ignore (Sim.Engine.run engine : Sim.Engine.outcome)
  in
  Alcotest.(check string) "same rejection" (attempt run_slow)
    (attempt run_fast)

let suite =
  parity_tests
  @ [
      Alcotest.test_case "dmax `Raise parity" `Quick test_dmax_raise;
      Alcotest.test_case "seed goldens: broadcasts" `Quick test_seed_goldens;
      Alcotest.test_case "seed goldens: election" `Quick
        test_seed_golden_election;
      Alcotest.test_case "seed goldens: maintenance" `Quick
        test_seed_golden_maintenance;
    ]
