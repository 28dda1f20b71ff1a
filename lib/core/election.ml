module Graph = Netgraph.Graph
module Network = Hardware.Network
module Anr = Hardware.Anr

type token = {
  torigin : int;  (* the candidate's origin *)
  tsize : int;  (* domain size at tour start: level = (tsize, torigin) *)
  entry : int;  (* o, the OUT node through which the tour entered *)
  home : int array;  (* packed route from [entry] back to [torigin] *)
  hops_used : int;  (* direct messages spent on this tour *)
  tepoch : int;  (* recovery epoch the token belongs to (0 without recovery) *)
}

type verdict =
  | Captured_domain of { victim : int; victim_inout : Inout.t; entry : int }
  | Unsuccessful

type msg =
  | Tour of token
  | Return of { to_origin : int; verdict : verdict; repoch : int }
  | Announce of { leader : int; aepoch : int }

type origin_state = {
  mutable cstatus : [ `Touring | `Inactive | `Leader ];
  mutable inout : Inout.t;
  mutable waiting : token option;
}

type captured_state = {
  frozen : Inout.t;  (* the INOUT tree as of capture time *)
  parent_route : Anr.route;  (* from this node to F's origin, compiled at capture *)
}

type role = Unstarted | Origin of origin_state | Captured of captured_state

type outcome = {
  leader : int;
  believed_leader : int option array;
  election_syscalls : int;
  start_syscalls : int;
  announce_syscalls : int;
  total_syscalls : int;
  hops : int;
  time : float;
  tours : int;
  captures : int;
  max_route : int;
  notify_syscalls : int;
  spanning_tree : Netgraph.Tree.t Lazy.t;
}

(* floor(log2 size) for size >= 1 *)
let phase size =
  let rec go p = if 1 lsl (p + 1) > size then p else go (p + 1) in
  go 0

let route_len_buckets =
  [| 1.0; 2.0; 4.0; 8.0; 16.0; 32.0; 64.0; 128.0; 256.0; 512.0; 1024.0 |]

type chaos_outcome = {
  leaders : int list;
  believed : int option array;
  election_deliveries : int;
  chaos_syscalls : int;
  chaos_hops : int;
  chaos_drops : int;
  chaos_dropped_in_flight : int;
  chaos_time : float;
  restarts : int;
  give_ups : int;
}

(* Per-run state of the epoch-restart recovery layer (DESIGN.md §16).
   An epoch is one attempt at the election: every message carries its
   sender's epoch, a node receiving a newer epoch forgets its role and
   re-joins lazily (the [ensure_started] pattern), and a touring origin
   whose watchdog expires restarts as a fresh singleton candidate in
   the next epoch.  Stale-epoch messages are dropped on receipt, so at
   most one token per (origin, epoch) is ever live and each epoch runs
   the paper's own election among the nodes it recruits. *)
type recovery_state = {
  rc : Hardware.Recover.t;
  robs : Hardware.Recover.obs option;
  rngs : Sim.Rng.t array;  (* per-node backoff jitter streams *)
  epochs : int array;
  restarts_used : int array;  (* watchdog budget consumed per node *)
  dogs : Sim.Timer.t option array;
  tally : Hardware.Recover.tally;
}

let run_core ?(cost = Hardware.Cost_model.new_model ()) ?starters ?rng
    ?(notify_supporters = false) ?recover ?trace ?registry ?chaos ~graph () =
  let n = Graph.n graph in
  if not (Graph.is_connected graph) then
    invalid_arg "Election.run: the graph must be connected";
  let obs =
    match registry with
    | Some r when Hardware.Registry.enabled r ->
        Some
          ( Hardware.Registry.counter r "election.tours"
              ~help:"tours undertaken across all candidates",
            Hardware.Registry.counter r "election.captures"
              ~help:"domain captures",
            Hardware.Registry.histogram r "election.route_len"
              ~help:"direct-message route length (header elements)"
              ~buckets:route_len_buckets )
    | _ -> None
  in
  let obs_tour () =
    match obs with Some (c, _, _) -> Hardware.Registry.incr c | None -> ()
  in
  let obs_capture () =
    match obs with Some (_, c, _) -> Hardware.Registry.incr c | None -> ()
  in
  let obs_route len =
    match obs with
    | Some (_, _, h) -> Hardware.Registry.observe h (float_of_int len)
    | None -> ()
  in
  (* a candidate's level (size, origin), ordered lexicographically, as
     one int: origins are below n *)
  let level ~size ~origin = (size * n) + origin in
  let level_of_token t = level ~size:t.tsize ~origin:t.torigin in
  let starters =
    match starters with
    | None -> List.init n Fun.id
    | Some [] -> invalid_arg "Election.run: starters must be non-empty"
    | Some l -> l
  in
  let engine = Sim.Engine.create ~queue_capacity:n () in
  let roles = Array.make n Unstarted in
  let believed_leader = Array.make n None in
  (* recovery only: node [v]'s next activation is a post-crash rejoin,
     not an ordinary start (set by the fault plan's on_node hook) *)
  let pending_restart = Array.make n false in
  let tours = ref 0 in
  let captures = ref 0 in
  let max_route = ref 0 in
  let rstate =
    match recover with
    | None -> None
    | Some rc ->
        Some
          {
            rc;
            robs = Hardware.Recover.obs registry;
            rngs = Hardware.Recover.streams rc ~n;
            epochs = Array.make n 0;
            restarts_used = Array.make n 0;
            dogs = Array.make n None;
            tally = Hardware.Recover.tally ();
          }
  in
  let epoch_of v =
    match rstate with None -> 0 | Some rs -> rs.epochs.(v)
  in
  let cancel_dog v =
    match rstate with
    | None -> ()
    | Some rs -> (
        match rs.dogs.(v) with Some d -> Sim.Timer.cancel d | None -> ())
  in

  let send ctx ~label route m =
    let hops = Anr.route_length route - 1 in
    max_route := max !max_route hops;
    obs_route hops;
    Network.send ~label ctx ~route m
  in

  (* Route from [v] (currently holding the token) back to the token's
     origin: first to [entry] along the INOUT tree [v] recorded when it
     was (or still is) an origin — the tour reached [v] by climbing
     virtual-tree parents, so [entry] lies in that tree — then along
     the home route the token carried from its origin.  Both pieces
     are packed ANR elements; splicing them is two blits into one
     exact-size array, the first without its closing NCU element. *)
  let walk_home v token =
    let inout =
      match roles.(v) with
      | Origin st -> st.inout
      | Captured cap -> cap.frozen
      | Unstarted -> invalid_arg "Election.walk_home: unstarted node"
    in
    if v = token.entry then Anr.route_of_codes token.home
    else begin
      let to_entry = Inout.route_to inout token.entry in
      let a = Array.length to_entry - 1 and b = Array.length token.home in
      let codes = Array.make (a + b) 0 in
      Array.blit to_entry 0 codes 0 a;
      Array.blit token.home 0 codes a b;
      Anr.route_of_codes codes
    end
  in

  let return_unsuccessful ctx v token =
    send ctx ~label:"election" (walk_home v token)
      (Return
         {
           to_origin = token.torigin;
           verdict = Unsuccessful;
           repoch = token.tepoch;
         })
  in

  (* [v] is an origin whose level is below the token's; its whole
     domain joins the token's candidate (rule 2.2). *)
  let capture ctx v token =
    match roles.(v) with
    | Origin st ->
        incr captures;
        obs_capture ();
        cancel_dog v;
        let home = walk_home v token in
        roles.(v) <- Captured { frozen = st.inout; parent_route = home };
        send ctx ~label:"election" home
          (Return
             {
               to_origin = token.torigin;
               verdict =
                 Captured_domain
                   { victim = v; victim_inout = st.inout; entry = token.entry };
               repoch = token.tepoch;
             })
    | Captured _ | Unstarted -> assert false
  in

  let choose_target st =
    match rng with
    | None -> (
        (* deterministic pick = head of the sorted OUT list, obtained
           with a fold instead of building and sorting the list *)
        match Inout.out_min st.inout with
        | Some o -> o
        | None -> assert false)
    | Some r -> (
        match Inout.out_nodes st.inout with
        | [] -> assert false
        | outs -> Sim.Rng.pick r outs)
  in

  let rec begin_tour ctx v =
    match roles.(v) with
    | Origin st ->
        if Inout.out_size st.inout = 0 then begin
          st.cstatus <- `Leader;
          cancel_dog v;
          believed_leader.(v) <- Some v;
          announce ctx v st
        end
        else begin
          let o = choose_target st in
          let token =
            {
              torigin = v;
              tsize = Inout.size st.inout;
              entry = o;
              home = Inout.route_home st.inout o;
              hops_used = 1;
              tepoch = epoch_of v;
            }
          in
          st.cstatus <- `Touring;
          incr tours;
          obs_tour ();
          send ctx ~label:"election"
            (Anr.route_of_codes (Inout.route_to st.inout o))
            (Tour token);
          arm_dog ctx v
        end
    | Captured _ | Unstarted -> assert false

  (* Tour-abandonment watchdog: armed whenever [v] launches a tour,
     cancelled the moment [v] stops being a touring origin (leader,
     captured, inactive, or reset into a newer epoch).  An expiry with
     [v] still touring means the token or its return was lost to a
     fault; if [v] is alive it restarts as a fresh singleton candidate
     in the next epoch, under capped exponential backoff and a bounded
     restart budget so non-healing schedules still quiesce. *)
  and arm_dog ctx v =
    match rstate with
    | None -> ()
    | Some rs ->
        let dog =
          match rs.dogs.(v) with
          | Some d -> d
          | None ->
              let d = Network.watchdog ctx in
              rs.dogs.(v) <- Some d;
              d
        in
        let attempt = rs.restarts_used.(v) in
        let delay = Hardware.Recover.delay rs.rc ~rng:rs.rngs.(v) ~attempt in
        (match rs.robs with
        | Some o -> Hardware.Registry.observe o.Hardware.Recover.r_backoff delay
        | None -> ());
        let armed_epoch = rs.epochs.(v) in
        Network.arm_watchdog ~label:"election-watchdog" ctx dog ~delay
          (fun () ->
            match roles.(v) with
            | Origin { cstatus = `Touring; _ }
              when rs.epochs.(v) = armed_epoch -> (
                rs.tally.timeouts <- rs.tally.timeouts + 1;
                if
                  rs.restarts_used.(v)
                  >= rs.rc.Hardware.Recover.max_retries
                then rs.tally.give_ups <- rs.tally.give_ups + 1
                else if
                  not (Network.node_is_alive (Network.network ctx) v)
                then begin
                  (* still crashed: wait out the fault on the same
                     backoff clock; the budget bounds total re-arms *)
                  rs.restarts_used.(v) <- rs.restarts_used.(v) + 1;
                  arm_dog ctx v
                end
                else restart_node ctx v)
            | _ -> ())

  (* Restart [v] as a fresh singleton candidate in the next epoch:
     the shared tail of a watchdog expiry (tour abandoned) and a
     post-crash rejoin (local state presumed stale, and any announce
     that passed while [v] was dead is lost for good — only a new
     epoch re-establishes a universally believed leader). *)
  and restart_node ctx v =
    match rstate with
    | None -> ()
    | Some rs ->
        rs.restarts_used.(v) <- rs.restarts_used.(v) + 1;
        rs.tally.restarts <- rs.tally.restarts + 1;
        rs.epochs.(v) <- rs.epochs.(v) + 1;
        believed_leader.(v) <- None;
        roles.(v) <-
          Origin
            {
              cstatus = `Touring;
              inout = Inout.singleton ~graph v;
              waiting = None;
            };
        begin_tour ctx v

  (* The leader's spanning tree, toured once with a copy at every
     first visit; the route comes compiled straight from the table. *)
  and announce ctx v st =
    let tour = Inout.tour ~graph st.inout in
    if Array.length tour > 0 then
      Network.send ~label:"announce" ctx ~route:(Anr.route_of_codes tour)
        (Announce { leader = v; aepoch = epoch_of v })
  in

  (* The comparison of rules (2.1)-(2.4), performed when [v]'s own
     candidate is back home (or was never away): the waiting token
     either captures [v] or returns home beaten. *)
  let resolve_waiting ctx v =
    match roles.(v) with
    | Origin st -> (
        match st.waiting with
        | None -> ()
        | Some j ->
            st.waiting <- None;
            let lv = level ~size:(Inout.size st.inout) ~origin:v in
            if lv > level_of_token j then return_unsuccessful ctx v j
            else capture ctx v j)
    | Captured _ | Unstarted -> ()
  in

  let ensure_started ctx =
    let v = Network.self ctx in
    match roles.(v) with
    | Unstarted ->
        roles.(v) <-
          Origin
            {
              cstatus = `Touring;
              inout = Inout.singleton ~graph v;
              waiting = None;
            };
        begin_tour ctx v
    | Origin _ | Captured _ -> ()
  in

  (* A tour climbs captured nodes' parent walks toward the capturer, so
     its entry is in the domain of every node it reaches — unless a
     fault lost the capture's Return, leaving the captured node pointing
     at an origin that never merged its domain.  Such a token has no
     route home: it is dropped as lost, and its origin's watchdog (under
     recovery) restarts the candidacy. *)
  let faulty = Option.is_some chaos in
  let stranded v token =
    faulty
    &&
    match roles.(v) with
    | Origin st -> not (Inout.mem st.inout token.entry)
    | Captured cap -> not (Inout.mem cap.frozen token.entry)
    | Unstarted -> false
  in

  let process_tour ctx v token =
    match roles.(v) with
    | Unstarted -> assert false
    | Origin st -> (
        let lv = level ~size:(Inout.size st.inout) ~origin:v in
        let lt = level_of_token token in
        match st.cstatus with
        | `Leader ->
            (* unreachable without faults: a leader's domain spans the
               graph, so no other candidate can still be touring.  A
               fault schedule can strand a stale token that arrives
               late; the leader's level (n, v) beats it — rule 2.1 *)
            return_unsuccessful ctx v token
        | `Inactive ->
            if lv > lt then return_unsuccessful ctx v token  (* 2.1 *)
            else capture ctx v token  (* 2.2 *)
        | `Touring -> (
            if lv > lt then return_unsuccessful ctx v token  (* 2.1 *)
            else
              match st.waiting with
              | None -> st.waiting <- Some token  (* 2.3 *)
              | Some j ->
                  (* 2.4: the lower-level candidate returns inactive *)
                  if lt < level_of_token j then
                    return_unsuccessful ctx v token
                  else begin
                    st.waiting <- Some token;
                    return_unsuccessful ctx v j
                  end))
    | Captured cap ->
        (* rule 1: hop budget is phase + 1 *)
        if token.hops_used > phase token.tsize then
          return_unsuccessful ctx v token
        else
          let token = { token with hops_used = token.hops_used + 1 } in
          send ctx ~label:"election" cap.parent_route (Tour token)
  in

  let process_return ctx v verdict =
    match roles.(v) with
    | Origin st -> (
        (match verdict with
        | Unsuccessful -> st.cstatus <- `Inactive
        | Captured_domain { victim_inout; entry; _ } ->
            (* in-place absorb: Θ(victim) per capture; the victim's
               structure stays frozen (relays still route through it) *)
            Inout.merge_into ~winner:st.inout ~victim:victim_inout ~entry;
            if notify_supporters then
              (* the naive variant: tell every member of the captured
                 domain who it now supports (one direct message each) *)
              List.iter
                (fun u ->
                  if u <> v then
                    send ctx ~label:"notify"
                      (Anr.route_of_codes (Inout.route_to st.inout u))
                      (Announce { leader = v; aepoch = epoch_of v }))
                (Inout.in_nodes victim_inout));
        resolve_waiting ctx v;
        (* if the waiting candidate captured us, we are no longer an
           origin; otherwise an active candidate tours again *)
        match roles.(v) with
        | Origin st when st.cstatus = `Touring -> begin_tour ctx v
        | Origin _ -> cancel_dog v
        | Captured _ | Unstarted -> ())
    | Captured _ | Unstarted -> assert false
  in

  (* One handler record serves every node of a run: each handler reads
     its node from the context, so a run builds no per-node closures. *)
  let handlers =
    {
      Network.on_start =
        (fun ctx ->
          let v = Network.self ctx in
          if pending_restart.(v) then begin
            pending_restart.(v) <- false;
            restart_node ctx v
          end
          else ensure_started ctx);
      on_message =
        (fun ctx ~via:_ m ->
          let v = Network.self ctx in
          (* Epoch gate (recovery only): drop messages from dead epochs;
             a Tour/Announce from a newer epoch makes [v] forget its
             role and re-join lazily.  A Return from a newer epoch is
             impossible — only [v]'s own tours produce Returns to [v],
             and those carry [v]'s epoch at launch time — so it is
             dropped too (it can only be stale). *)
          let stale =
            match rstate with
            | None -> false
            | Some rs -> (
                let e =
                  match m with
                  | Tour t -> t.tepoch
                  | Return r -> r.repoch
                  | Announce a -> a.aepoch
                in
                if e < rs.epochs.(v) then true
                else if e = rs.epochs.(v) then false
                else
                  match m with
                  | Return _ -> true
                  | Tour _ ->
                      (* recruited into a newer epoch: forget the old
                         role and re-join as a fresh lazy starter *)
                      rs.epochs.(v) <- e;
                      cancel_dog v;
                      believed_leader.(v) <- None;
                      roles.(v) <- Unstarted;
                      false
                  | Announce _ ->
                      (* a newer epoch already completed: adopt its
                         result without launching a doomed candidacy *)
                      rs.epochs.(v) <- e;
                      cancel_dog v;
                      false)
          in
          if not stale then begin
            (match (m, rstate) with
            | Announce _, Some _ -> ()
            | _ -> ensure_started ctx);
            match m with
            | Tour token ->
                if not (stranded v token) then process_tour ctx v token
            | Return { to_origin; verdict; _ } ->
                assert (to_origin = v);
                process_return ctx v verdict
            | Announce { leader; _ } -> believed_leader.(v) <- Some leader
          end);
      on_link_change = (fun _ ~peer:_ ~up:_ -> ());
    }
  in
  (* the paper's "linear length" ANRs: tours and returns concatenate at
     most two linear routes, and the announcement tour is < 2n, so a
     hard dmax of 2n + 2 must never fire - enforced live *)
  let net =
    Network.create ?trace ?registry ~dmax:((2 * n) + 2) ~engine ~cost ~graph
      ~handlers:(fun _ -> handlers) ()
  in
  (match chaos with
  | Some plan -> (
      match rstate with
      | None -> Hardware.Fault_plan.arm net plan
      | Some rs ->
          (* a recovered node rejoins through a fresh activation (one
             priced syscall) rather than synchronously inside the
             fault event, so the restart is billed like any start *)
          Hardware.Fault_plan.arm
            ~on_node:(fun ~node ~alive ->
              if
                alive
                && rs.restarts_used.(node) < rs.rc.Hardware.Recover.max_retries
              then begin
                pending_restart.(node) <- true;
                Network.start ~label:"recover-restart" net node
              end)
            net plan)
  | None -> ());
  List.iter (fun v -> Network.start ~label:"start" net v) starters;
  (match Sim.Engine.run engine with
  | Sim.Engine.Quiescent -> ()
  | Sim.Engine.Time_limit | Sim.Engine.Event_limit -> assert false);
  Network.publish_distributions net;
  (match rstate with
  | Some rs -> Hardware.Recover.publish rs.robs rs.tally
  | None -> ());
  (roles, believed_leader, net, engine, rstate, !tours, !captures, !max_route)

let run ?cost ?starters ?rng ?notify_supporters ?recover ?trace ?registry
    ~graph () =
  let roles, believed_leader, net, engine, _rstate, tours, captures, max_route =
    run_core ?cost ?starters ?rng ?notify_supporters ?recover ?trace ?registry
      ~graph ()
  in
  let leader =
    let found = ref None in
    Array.iteri
      (fun v role ->
        match role with
        | Origin { cstatus = `Leader; _ } -> (
            match !found with
            | None -> found := Some v
            | Some _ -> invalid_arg "Election.run: two leaders elected")
        | _ -> ())
      roles;
    match !found with
    | Some v -> v
    | None -> invalid_arg "Election.run: no leader elected"
  in
  (* built on demand: most callers never read the tree, and building
     it costs a Tree.of_parents per run *)
  let spanning_tree =
    match roles.(leader) with
    | Origin st -> lazy (Inout.spanning_tree st.inout)
    | Captured _ | Unstarted -> assert false
  in
  let m = Network.metrics net in
  let outcome =
    {
      leader;
      believed_leader;
      election_syscalls = Hardware.Metrics.syscalls_labelled m "election";
      start_syscalls = Hardware.Metrics.syscalls_labelled m "start";
      announce_syscalls = Hardware.Metrics.syscalls_labelled m "announce";
      total_syscalls = Hardware.Metrics.syscalls m;
      hops = Hardware.Metrics.hops m;
      time = Sim.Engine.now engine;
      tours;
      captures;
      max_route;
      notify_syscalls = Hardware.Metrics.syscalls_labelled m "notify";
      spanning_tree;
    }
  in
  Network.retire net;
  outcome

let run_chaos ?cost ?starters ?rng ?recover ?trace ?registry ?chaos ~graph () =
  let roles, believed_leader, net, engine, rstate, _tours, _captures, _max_route
      =
    run_core ?cost ?starters ?rng ?recover ?trace ?registry ?chaos ~graph ()
  in
  let leaders = ref [] in
  Array.iteri
    (fun v role ->
      match role with
      | Origin { cstatus = `Leader; _ } -> leaders := v :: !leaders
      | _ -> ())
    roles;
  let m = Network.metrics net in
  let outcome =
    {
      leaders = List.rev !leaders;
      believed = believed_leader;
      election_deliveries = Hardware.Metrics.syscalls_labelled m "election";
      chaos_syscalls = Hardware.Metrics.syscalls m;
      chaos_hops = Hardware.Metrics.hops m;
      chaos_drops = Hardware.Metrics.drops m;
      chaos_dropped_in_flight = Hardware.Metrics.dropped_in_flight m;
      chaos_time = Sim.Engine.now engine;
      restarts = (match rstate with Some rs -> rs.tally.restarts | None -> 0);
      give_ups = (match rstate with Some rs -> rs.tally.give_ups | None -> 0);
    }
  in
  Network.retire net;
  outcome
