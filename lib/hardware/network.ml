module Graph = Netgraph.Graph

(* Runtime state of the switching fabric, laid out densely over the
   graph's flat edge ids (see Graph's CSR layout and DESIGN.md, "The
   switching-fabric fast path"), with no record per link or per node:
   - [link.(Graph.edge_uid ...)] is one physical link's state (both
     directions) packed in an int, [epoch lsl 1 lor up].  Every change
     of [up] bumps the epoch, and so does {!drop_in_flight}; a hop
     keeps the word it saw at departure (when the link was up) and is
     delivered only if the word is unchanged at arrival, so any
     failure in between, even a down/up round trip, loses it;
   - [fifo.(directed edge id)] is the last scheduled arrival on that
     directed link, enforcing per-direction FIFO order.
   A packet in flight is a compiled {!Anr.route} plus an int cursor;
   forwarding it allocates nothing beyond the scheduled closure.  A
   handler's {!context} is built when its activation fires: three
   short-lived words that die young, where a per-node array of them
   would live (and be promoted) for the whole run. *)
(* Pre-registered registry handles: one option match on the hot path,
   no name lookups per event, nothing at all when no registry is
   attached (the zero-allocation disabled path of DESIGN.md §7). *)
type obs = {
  o_hops : Registry.counter;
  o_syscalls : Registry.counter;
  o_sends : Registry.counter;
  o_drops : Registry.counter;
  o_dropped_in_flight : Registry.counter;
  o_hop_latency : Registry.histogram;
  o_header_len : Registry.histogram;
}

type 'msg t = {
  graph : Graph.t;
  engine : Sim.Engine.t;
  cost : Cost_model.t;
  metrics : Metrics.t;
  trace : Sim.Trace.t;
  registry : Registry.t option;
  obs : obs option;
  dmax : int option;
  dmax_policy : [ `Raise | `Drop ];
  detection_delay : float;
  handlers : 'msg handlers array;
  link : int array;  (* by undirected edge id: [epoch lsl 1 lor up] *)
  fifo : float array;  (* by directed edge id: last scheduled arrival *)
  ncu_busy_until : float array;
  dead : bool array;
  mutable next_msg_id : int;
}

and 'msg context = { net : 'msg t; node : int }

and 'msg handlers = {
  on_start : 'msg context -> unit;
  on_message : 'msg context -> via:int option -> 'msg -> unit;
  on_link_change : 'msg context -> peer:int -> up:bool -> unit;
}

let default_handlers =
  {
    on_start = (fun _ -> ());
    on_message = (fun _ ~via:_ _ -> ());
    on_link_change = (fun _ ~peer:_ ~up:_ -> ());
  }

let hop_latency_buckets = [| 0.25; 0.5; 1.0; 2.0; 4.0; 8.0; 16.0; 32.0; 64.0 |]
let header_len_buckets = [| 1.0; 2.0; 4.0; 8.0; 16.0; 32.0; 64.0; 128.0; 256.0 |]
let syscalls_per_node_buckets = [| 0.0; 1.0; 2.0; 4.0; 8.0; 16.0; 32.0; 64.0 |]

let make_obs registry =
  match registry with
  | Some r when Registry.enabled r ->
      Some
        {
          o_hops = Registry.counter r "net.hops" ~help:"packets through switches";
          o_syscalls = Registry.counter r "net.syscalls" ~help:"NCU activations";
          o_sends = Registry.counter r "net.sends" ~help:"packet injections";
          o_drops = Registry.counter r "net.drops" ~help:"packets that died";
          o_dropped_in_flight =
            Registry.counter r "net.dropped_in_flight"
              ~help:"packets lost mid-link when the link failed under them";
          o_hop_latency =
            Registry.histogram r "net.hop_latency"
              ~help:"per-hop delay incl. FIFO queueing"
              ~buckets:hop_latency_buckets;
          o_header_len =
            Registry.histogram r "net.header_len"
              ~help:"ANR header length of injected packets (elements)"
              ~buckets:header_len_buckets;
        }
  | _ -> None

let link_word ~epoch ~up = (epoch lsl 1) lor Bool.to_int up
let word_up word = word land 1 = 1

(* The next word of a link whose state becomes [up]: a new epoch. *)
let bump word ~up = link_word ~epoch:((word lsr 1) + 1) ~up

(* The per-run arrays a retired network leaves for the next run over a
   graph of the same size: all of its O(n + m) state except [handlers],
   whose element type is the run's message type.  One per domain; see
   {!Sim.Engine.retire} for the rules the slot keeps. *)
type spare = {
  s_link : int array;
  s_fifo : float array;
  s_busy : float array;
  s_dead : bool array;
  s_metrics : Metrics.t;
}

let spare : spare option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)
let link_fresh = link_word ~epoch:0 ~up:true

(* The spare refilled to a new network's state if it fits [graph],
   fresh arrays otherwise.  Either way the slot is left empty. *)
let take_arrays graph =
  let n = Graph.n graph and m = Graph.m graph in
  let kept = Domain.DLS.get spare in
  Domain.DLS.set spare None;
  match kept with
  | Some s when Metrics.n s.s_metrics = n && Array.length s.s_link = m ->
      Array.fill s.s_link 0 m link_fresh;
      Array.fill s.s_fifo 0 (Array.length s.s_fifo) neg_infinity;
      Array.fill s.s_busy 0 n 0.0;
      Array.fill s.s_dead 0 n false;
      Metrics.reset s.s_metrics;
      s
  | _ ->
      {
        s_link = Array.make m link_fresh;
        s_fifo = Array.make (Graph.directed_edge_count graph) neg_infinity;
        s_busy = Array.make n 0.0;
        s_dead = Array.make n false;
        s_metrics = Metrics.create ~n;
      }

let create ?trace ?registry ?dmax ?(dmax_policy = `Raise)
    ?(detection_delay = 0.0) ~engine ~cost ~graph ~handlers () =
  let s = take_arrays graph in
  {
    graph;
    engine;
    cost;
    metrics = s.s_metrics;
    trace = (match trace with Some t -> t | None -> Sim.Trace.disabled ());
    registry;
    obs = make_obs registry;
    dmax;
    dmax_policy;
    detection_delay;
    handlers = Array.init (Graph.n graph) handlers;
    link = s.s_link;
    fifo = s.s_fifo;
    ncu_busy_until = s.s_busy;
    dead = s.s_dead;
    next_msg_id = 0;
  }

let retire t =
  Sim.Engine.retire t.engine;
  Domain.DLS.set spare
    (Some
       {
         s_link = t.link;
         s_fifo = t.fifo;
         s_busy = t.ncu_busy_until;
         s_dead = t.dead;
         s_metrics = t.metrics;
       })

let graph t = t.graph
let engine t = t.engine
let metrics t = t.metrics
let cost t = t.cost
let trace t = t.trace
let tracing t = Sim.Trace.enabled t.trace
let registry t = t.registry

let obs_drop t =
  match t.obs with Some o -> Registry.incr o.o_drops | None -> ()

let publish_distributions t =
  match t.registry with
  | Some r when Registry.enabled r ->
      let h =
        Registry.histogram r "net.syscalls_per_node"
          ~help:"NCU activations per node over the run"
          ~buckets:syscalls_per_node_buckets
      in
      Graph.iter_nodes
        (fun v ->
          Registry.observe h (float_of_int (Metrics.syscalls_at t.metrics v)))
        t.graph;
      (* a trace that lost events silently would make any profile
         computed from it wrong; surface both loss modes as
         first-class instruments (ring evictions lose the oldest
         prefix, sink refusals the newest suffix) *)
      let ring = Sim.Trace.dropped_ring t.trace in
      if ring > 0 then
        Registry.add
          (Registry.counter r "sim.trace.dropped_ring"
             ~help:"trace events evicted by the ring-buffer capacity")
          ring;
      let sink = Sim.Trace.dropped_sink t.trace in
      if sink > 0 then
        Registry.add
          (Registry.counter r "sim.trace.dropped_sink"
             ~help:"trace events refused by the streaming sink")
          sink
  | _ -> ()

(* The busy-until high-water marks double as completion times: every
   activation bumps its node's mark to the finish time, so the max is
   exactly the time of the last Receive/Syscall event a trace would
   have recorded — available even with tracing off. *)
let last_activation_time t =
  let last = ref 0.0 in
  for v = 0 to Array.length t.ncu_busy_until - 1 do
    let b = t.ncu_busy_until.(v) in
    if b > !last then last := b
  done;
  !last

let link_id t u v =
  match Graph.undirected_edge_id t.graph u v with
  | id -> id
  | exception Not_found ->
      invalid_arg (Printf.sprintf "Network: no link between %d and %d" u v)

let link_is_up t u v = word_up t.link.(link_id t u v)

let preset_link t u v ~up =
  let id = link_id t u v in
  let word = t.link.(id) in
  if word_up word <> up then t.link.(id) <- bump word ~up

let active_neighbors t u =
  let g = t.graph in
  let acc = ref [] in
  for i = Graph.degree g u downto 1 do
    let e = Graph.edge_id g u i in
    if word_up t.link.(Graph.edge_uid g e) then
      acc := Graph.edge_target g e :: !acc
  done;
  !acc

(* Allocation-free variants of [active_neighbors] for hot paths:
   same increasing-peer order, no intermediate list. *)
let iter_active_neighbors t u f =
  let g = t.graph in
  let deg = Graph.degree g u in
  for i = 1 to deg do
    let e = Graph.edge_id g u i in
    if word_up t.link.(Graph.edge_uid g e) then f i (Graph.edge_target g e)
  done


(* -- NCU activations: single-server FIFO queue per node ------------- *)

(* Run [f] on node [v]'s NCU: the activation starts when both the
   triggering event has arrived and the processor is free, and
   completes one software delay later; effects of [f] (sends, state
   changes) take place at completion.  [msg_id >= 0] marks a packet
   delivery; a negative id a software activation.  Times here are
   never NaN (the engine refuses them), so a plain comparison takes
   the later of two: [Float.max] would cost a C call per activation
   and per hop. *)
let activate t v ~label ~msg_id f =
  let arrival = Sim.Engine.now t.engine in
  let busy = t.ncu_busy_until.(v) in
  let start = if arrival >= busy then arrival else busy in
  let finish = start +. t.cost.Cost_model.sys_delay () in
  t.ncu_busy_until.(v) <- finish;
  Sim.Engine.schedule_at t.engine ~time:finish (fun () ->
      Metrics.record_syscall t.metrics ~node:v ~label;
      (match t.obs with Some o -> Registry.incr o.o_syscalls | None -> ());
      if tracing t then
        Sim.Trace.record t.trace
          (if msg_id >= 0 then
             Sim.Trace.Receive { node = v; time = finish; msg_id; label }
           else Sim.Trace.Syscall { node = v; time = finish; label });
      f ())

(* -- Switching hardware ---------------------------------------------- *)

(* [via < 0] encodes "no incoming link" without allocating an option
   on every hop. *)
let deliver_to_ncu t v ~via ~label ~msg_id payload =
  activate t v ~label ~msg_id (fun () ->
      let via = if via < 0 then None else Some via in
      t.handlers.(v).on_message { net = t; node = v } ~via payload)

(* For constant [reason] strings only — a dynamically built reason
   must be constructed under its own [tracing] guard so the untraced
   path stays allocation-free. *)
let drop t ~node reason =
  Metrics.record_drop t.metrics;
  obs_drop t;
  if tracing t then
    Sim.Trace.record t.trace
      (Sim.Trace.Drop { node; time = Sim.Engine.now t.engine; reason })

(* Process the packet at node [u]'s switching subsystem; [via] is the
   node the packet arrived from ([-1] at the injector).  [cursor]
   indexes the next header element of the compiled [route]. *)
let rec switch t u ~via route cursor ~label ~msg_id payload =
  let len = Anr.route_length route in
  if cursor >= len then drop t ~node:u "empty header"
  else
    let link = Anr.route_link route cursor in
    let copy = Anr.route_copy route cursor in
    if link = 0 then begin
      if copy then drop t ~node:u "copy flag on NCU link"
      else if cursor < len - 1 then drop t ~node:u "elements after NCU delivery"
      else deliver_to_ncu t u ~via ~label ~msg_id payload
    end
    else begin
      if copy then deliver_to_ncu t u ~via ~label ~msg_id payload;
      if link > Graph.degree t.graph u then begin
        Metrics.record_drop t.metrics;
        obs_drop t;
        if tracing t then
          Sim.Trace.record t.trace
            (Sim.Trace.Drop
               {
                 node = u;
                 time = Sim.Engine.now t.engine;
                 reason = Printf.sprintf "dangling link id %d" link;
               })
      end
      else begin
        let dedge = Graph.edge_id t.graph u link in
        let v = Graph.edge_target t.graph dedge in
        let id = Graph.edge_uid t.graph dedge in
        let state = t.link.(id) in
        if not (word_up state) then begin
          Metrics.record_drop t.metrics;
          obs_drop t;
          if tracing t then
            Sim.Trace.record t.trace
              (Sim.Trace.Drop
                 {
                   node = u;
                   time = Sim.Engine.now t.engine;
                   reason = Printf.sprintf "link to %d inactive" v;
                 })
        end
        else begin
          let now = Sim.Engine.now t.engine in
          let proposed = now +. t.cost.Cost_model.hop_delay () in
          (* FIFO per directed link: never deliver before an earlier
             packet on the same link. *)
          let queued = t.fifo.(dedge) in
          let arrival = if proposed >= queued then proposed else queued in
          t.fifo.(dedge) <- arrival;
          Metrics.record_hop t.metrics;
          (match t.obs with
          | Some o ->
              Registry.incr o.o_hops;
              Registry.observe o.o_hop_latency (arrival -. now)
          | None -> ());
          Sim.Engine.schedule_at t.engine ~time:arrival (fun () ->
              if t.link.(id) = state then begin
                if tracing t then
                  Sim.Trace.record t.trace
                    (Sim.Trace.Hop { src = u; dst = v; time = arrival; msg_id });
                switch t v ~via:u route (cursor + 1) ~label ~msg_id payload
              end
              else begin
                (* the silent-discard path: a packet committed to the
                   link before the failure; account for it explicitly *)
                (match t.obs with
                | Some o -> Registry.incr o.o_dropped_in_flight
                | None -> ());
                drop t ~node:v "lost in flight (link failed)"
              end)
        end
      end
    end

(* -- Public: global side --------------------------------------------- *)

let start ?(label = "start") t v =
  activate t v ~label ~msg_id:(-1) (fun () ->
      t.handlers.(v).on_start { net = t; node = v })

let start_all ?(label = "start") t =
  Graph.iter_nodes (fun v -> start ~label t v) t.graph

let set_link t u v ~up =
  let id = link_id t u v in
  let word = t.link.(id) in
  if word_up word <> up then begin
    t.link.(id) <- bump word ~up;
    if tracing t then
      Sim.Trace.record t.trace
        (Sim.Trace.Link_change
           { u = min u v; v = max u v; up; time = Sim.Engine.now t.engine });
    let notify endpoint peer =
      Sim.Engine.schedule t.engine ~delay:t.detection_delay (fun () ->
          activate t endpoint ~label:"link-change" ~msg_id:(-1) (fun () ->
              t.handlers.(endpoint).on_link_change
                { net = t; node = endpoint }
                ~peer ~up))
    in
    notify u v;
    notify v u
  end

let drop_in_flight t u v =
  let id = link_id t u v in
  let word = t.link.(id) in
  (* advancing the epoch invalidates every packet committed to the
     link without changing its up/down state, so neither endpoint is
     notified — a momentary physical glitch below detection threshold *)
  t.link.(id) <- bump word ~up:(word_up word);
  if tracing t then
    Sim.Trace.record t.trace
      (Sim.Trace.Custom
         {
           time = Sim.Engine.now t.engine;
           label = Printf.sprintf "drop-in-flight %d-%d" (min u v) (max u v);
         })

let node_is_alive t v = not t.dead.(v)

let fail_node t v =
  if node_is_alive t v then begin
    t.dead.(v) <- true;
    Graph.iter_neighbors (fun u -> set_link t v u ~up:false) t.graph v
  end

let restore_node t v =
  if not (node_is_alive t v) then begin
    t.dead.(v) <- false;
    Graph.iter_neighbors
      (fun u -> if node_is_alive t u then set_link t v u ~up:true)
      t.graph v
  end

(* -- Public: node side ------------------------------------------------ *)

let self ctx = ctx.node
let network ctx = ctx.net
let now ctx = Sim.Engine.now ctx.net.engine

(* Common injection path: [compiled] carries [header_len] elements.
   [send] compiles the list header here; [send_compiled] skips that —
   the dmax check, metrics, trace and switching are identical. *)
let inject ~label ctx ~header_len compiled payload =
  let t = ctx.net in
  let oversized =
    match t.dmax with Some bound -> header_len > bound | None -> false
  in
  if oversized && t.dmax_policy = `Raise then
    invalid_arg
      (Printf.sprintf "Network.send: header length %d exceeds dmax %d"
         header_len (Option.get t.dmax))
  else if oversized then begin
    (* the hardware refuses headers it cannot buffer *)
    Metrics.record_drop t.metrics;
    obs_drop t;
    if tracing t then
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
    Metrics.record_send t.metrics ~header_len;
    (match t.obs with
    | Some o ->
        Registry.incr o.o_sends;
        Registry.observe o.o_header_len (float_of_int header_len)
    | None -> ());
    if tracing t then
      Sim.Trace.record t.trace
        (Sim.Trace.Send
           { node = ctx.node; time = Sim.Engine.now t.engine; msg_id; label });
    switch t ctx.node ~via:(-1) compiled 0 ~label ~msg_id payload
  end

let send ?(label = "") ctx ~route payload =
  inject ~label ctx ~header_len:(Anr.length route) (Anr.compile route) payload

let send_compiled ?(label = "") ctx ~route payload =
  inject ~label ctx ~header_len:(Anr.route_length route) route payload

let send_walk ?label ?copy_at ctx ~walk payload =
  (match walk with
  | first :: _ when first = ctx.node -> ()
  | _ -> invalid_arg "Network.send_walk: walk must start at the sender");
  let route = Anr.of_walk ?copy_at ctx.net.graph walk in
  send ?label ctx ~route payload

let send_walk_arr ?label ?copy_at ctx ~walk payload =
  if Array.length walk = 0 || walk.(0) <> ctx.node then
    invalid_arg "Network.send_walk_arr: walk must start at the sender";
  let route = Anr.compile_walk_arr ?copy_at ctx.net.graph walk in
  send_compiled ?label ctx ~route payload

let neighbors ctx =
  let t = ctx.net in
  let g = t.graph in
  let u = ctx.node in
  let acc = ref [] in
  for i = Graph.degree g u downto 1 do
    let e = Graph.edge_id g u i in
    acc :=
      (Graph.edge_target g e, word_up t.link.(Graph.edge_uid g e)) :: !acc
  done;
  !acc

let set_timer ?(label = "timer") ctx ~delay f =
  let t = ctx.net in
  Sim.Engine.schedule t.engine ~delay (fun () ->
      activate t ctx.node ~label ~msg_id:(-1) f)

let watchdog ctx = Sim.Timer.create ctx.net.engine

let arm_watchdog ?(label = "watchdog") ctx timer ~delay f =
  let t = ctx.net in
  let node = ctx.node in
  (* the generation check runs at engine level: a cancelled or
     superseded watchdog never touches the NCU, so it costs no syscall
     and leaves no trace event — only a watchdog that actually expires
     is priced (one software activation, like any timer) *)
  Sim.Timer.arm timer ~delay (fun () -> activate t node ~label ~msg_id:(-1) f)
