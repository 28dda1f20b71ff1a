module Graph = Netgraph.Graph
module Cost_model = Hardware.Cost_model
module Network = Hardware.Network
module Metrics = Hardware.Metrics

type result = {
  time : float;
  syscalls : int;
  hops : int;
  sends : int;
  drops : int;
  max_header : int;
  reached : bool array;
}

let coverage r = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 r.reached
let all_reached r = Array.for_all Fun.id r.reached

type config = {
  cost : Cost_model.t;
  failed : (int * int) list;
  dmax : int option;
  view : Graph.t option;
  trace : Sim.Trace.t option;
  registry : Hardware.Registry.t option;
  chaos : Hardware.Fault_plan.t option;
  recover : Hardware.Recover.t option;
}

let default_config () =
  {
    cost = Cost_model.new_model ();
    failed = [];
    dmax = None;
    view = None;
    trace = None;
    registry = None;
    chaos = None;
    recover = None;
  }

(* Root-side ack/retransmit state shared by the recovering broadcast
   algorithms (DESIGN.md §16).  Receivers acknowledge each accepted
   attempt back to the root; the root's watchdog retransmits the whole
   broadcast — attempt-tagged, so relays forward once per attempt and
   acceptance stays at-most-once — under capped exponential backoff
   until every node acked or the retry budget is spent.  Everything is
   ordinary engine events and the backoff jitter comes from the root's
   own split stream, so traces stay byte-identical at any [--jobs]. *)
module Recovery = struct
  module Registry = Hardware.Registry
  module Recover = Hardware.Recover

  type t = {
    rc : Recover.t;
    obs : Recover.obs option;
    acked : bool array;
    mutable acks : int;
    mutable attempt : int;
    mutable dog : Sim.Timer.t option;
    rng : Sim.Rng.t;  (* the root's jitter stream *)
    relayed : int array;  (* per node: the last attempt it relayed *)
  }

  let create config ~n ~root =
    match config.recover with
    | None -> None
    | Some rc ->
        let acked = Array.make n false in
        acked.(root) <- true;
        Some
          {
            rc;
            obs = Recover.obs config.registry;
            acked;
            acks = 1;
            attempt = 0;
            dog = None;
            rng = Recover.stream rc root;
            relayed = Array.make n (-1);
          }

  let complete st = st.acks >= Array.length st.acked

  let first_relay st v ~attempt =
    if attempt > st.relayed.(v) then begin
      st.relayed.(v) <- attempt;
      true
    end
    else false

  (* Root side: record one ack, at most once per source; the watchdog
     is cancelled the instant the last ack lands, so a fault-free
     recovering run costs exactly the acks — no expiry ever fires. *)
  let ack st ~src =
    if src >= 0 && src < Array.length st.acked && not st.acked.(src) then begin
      st.acked.(src) <- true;
      st.acks <- st.acks + 1;
      (match st.obs with Some o -> Registry.incr o.Recover.r_acks | None -> ());
      if complete st then
        match st.dog with Some d -> Sim.Timer.cancel d | None -> ()
    end

  (* Root side, from on_start: arm the watchdog loop.  Expiry [k]
     (0-based) retransmits as attempt [k+1] and re-arms with the next
     backoff delay until the budget is spent. *)
  let start st ctx ~resend =
    let dog = Network.watchdog ctx in
    st.dog <- Some dog;
    let rec arm () =
      let delay = Recover.delay st.rc ~rng:st.rng ~attempt:st.attempt in
      (match st.obs with
      | Some o -> Registry.observe o.Recover.r_backoff delay
      | None -> ());
      Network.arm_watchdog ~label:"bcast-watchdog" ctx dog ~delay (fun () ->
          if not (complete st) then begin
            (match st.obs with
            | Some o -> Registry.incr o.Recover.r_timeouts
            | None -> ());
            if st.attempt >= st.rc.Recover.max_retries then (
              match st.obs with
              | Some o -> Registry.incr o.Recover.r_give_ups
              | None -> ())
            else begin
              st.attempt <- st.attempt + 1;
              (match st.obs with
              | Some o -> Registry.incr o.Recover.r_retransmits
              | None -> ());
              resend ~attempt:st.attempt;
              arm ()
            end
          end)
    in
    arm ()

  (* The ack route: up the broadcast tree from [v] to its root, one
     plain hop per [parent] step — a path of the static graph, so it is
     valid again once every fault has healed. *)
  let ack_route graph ~parent v =
    (* the nodes of the climb, [v] and the root included *)
    let len = ref 1 and u = ref v in
    while parent.(!u) >= 0 do
      incr len;
      u := parent.(!u)
    done;
    let codes = Array.make !len 0 in
    let u = ref v in
    for i = 0 to !len - 2 do
      let p = parent.(!u) in
      codes.(i) <- Graph.link_index graph !u p lsl 1;
      u := p
    done;
    Hardware.Anr.route_of_codes codes

  let send_ack ~label ctx ~parent m =
    let v = Network.self ctx in
    if parent.(v) >= 0 then
      let graph = Network.graph (Network.network ctx) in
      Network.send_compiled ~label ctx ~route:(ack_route graph ~parent v) m
end

type 'msg spec =
  reached:bool array -> view:Graph.t -> int -> 'msg Network.handlers

let execute ~config ~graph ~root ~spec () =
  (* queue peak is bounded by in-flight packets, itself O(n) for every
     broadcast here; the hint saves the doubling regrowth, and the
     engine and network retired below serve the next run of this size *)
  let engine = Sim.Engine.create ~queue_capacity:(Graph.n graph) () in
  (* no caller-supplied trace means nobody can observe one: run with
     recording off rather than materialising the whole run in RAM *)
  let trace =
    match config.trace with Some t -> t | None -> Sim.Trace.disabled ()
  in
  let view = Option.value ~default:graph config.view in
  let reached = Array.make (Graph.n graph) false in
  let net =
    Network.create ~trace ?registry:config.registry ?dmax:config.dmax ~engine
      ~cost:config.cost ~graph ~handlers:(spec ~reached ~view) ()
  in
  List.iter (fun (u, v) -> Network.preset_link net u v ~up:false) config.failed;
  (match config.chaos with
  | Some plan -> Hardware.Fault_plan.arm net plan
  | None -> ());
  reached.(root) <- true;
  Network.start ~label:"broadcast-start" net root;
  (match Sim.Engine.run engine with
  | Sim.Engine.Quiescent -> ()
  | Sim.Engine.Time_limit | Sim.Engine.Event_limit ->
      (* unreachable: no horizon/budget given *)
      assert false);
  Network.publish_distributions net;
  let m = Network.metrics net in
  (* completion = the last NCU activation finishing; taken from the
     network's busy-until marks so it holds with tracing off or
     streaming (a trace fold would see an empty ring) *)
  let result =
    {
      time = Network.last_activation_time net;
      syscalls = Metrics.syscalls m;
      hops = Metrics.hops m;
      sends = Metrics.sends m;
      drops = Metrics.drops m;
      max_header = Metrics.max_header m;
      reached;
    }
  in
  Network.retire net;
  result
