(* Tests for Hardware.Network: the switching/NCU runtime semantics. *)

module N = Hardware.Network
module CM = Hardware.Cost_model
module B = Netgraph.Builders

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

type msg = Payload of int

(* Build a network over [graph] where node deliveries are appended to a
   log as (node, via, value, time); [action node ctx] runs at start. *)
let harness ?dmax ?(cost = CM.new_model ()) ?(failed = []) ~graph ~action () =
  let engine = Sim.Engine.create () in
  let log = ref [] in
  let handlers v =
    {
      N.on_start = (fun ctx -> action v ctx);
      on_message =
        (fun ctx ~via (Payload x) ->
          log := (v, via, x, N.now ctx) :: !log);
      on_link_change = (fun _ ~peer:_ ~up:_ -> ());
    }
  in
  let net = N.create ?dmax ~engine ~cost ~graph ~handlers () in
  List.iter (fun (u, v) -> N.preset_link net u v ~up:false) failed;
  (net, engine, log)

let run engine = ignore (Sim.Engine.run engine : Sim.Engine.outcome)

let test_direct_delivery () =
  let graph = B.path 4 in
  let action v ctx =
    if v = 0 then N.send_walk ctx ~walk:[| 0; 1; 2; 3 |] (Payload 42)
  in
  let net, engine, log = harness ~graph ~action () in
  N.start net 0;
  run engine;
  match !log with
  | [ (node, via, x, _) ] ->
      check_int "delivered to 3" 3 node;
      check_bool "via 2" true (via = Some 2);
      check_int "payload" 42 x;
      check_int "3 hops counted" 3 (Hardware.Metrics.hops (N.metrics net));
      check_int "2 syscalls (start + delivery)" 2
        (Hardware.Metrics.syscalls (N.metrics net))
  | l -> Alcotest.failf "expected 1 delivery, got %d" (List.length l)

let test_no_delivery_without_start () =
  let graph = B.path 4 in
  let action v ctx =
    if v = 0 then
      N.send_walk ~copy_at:(fun _ -> true) ctx ~walk:[| 0; 1; 2; 3 |] (Payload 7)
  in
  let _net, engine, log = harness ~graph ~action () in
  run engine;
  check_int "no deliveries without start" 0 (List.length !log)

let test_selective_copy () =
  let graph = B.path 4 in
  let action v ctx =
    if v = 0 then
      N.send_walk ~copy_at:(fun _ -> true) ctx ~walk:[| 0; 1; 2; 3 |] (Payload 7)
  in
  let net, engine, log = harness ~graph ~action () in
  N.start net 0;
  run engine;
  let receivers = List.sort compare (List.map (fun (n, _, _, _) -> n) !log) in
  Alcotest.(check (list int)) "all downstream NCUs" [ 1; 2; 3 ] receivers;
  check_int "still 3 hops (one packet)" 3 (Hardware.Metrics.hops (N.metrics net));
  check_int "1 send" 1 (Hardware.Metrics.sends (N.metrics net))

let test_self_delivery () =
  let graph = B.path 2 in
  let action v ctx =
    if v = 0 then N.send ctx ~route:Suite_anr.Ref.(route [ deliver ]) (Payload 1)
  in
  let net, engine, log = harness ~graph ~action () in
  N.start net 0;
  run engine;
  check_int "self delivery" 1 (List.length !log);
  check_int "no hops" 0 (Hardware.Metrics.hops (N.metrics net))

let test_timing_new_model () =
  (* C=0, P=1: start activation at 1; delivery processed at 2. *)
  let graph = B.path 3 in
  let action v ctx = if v = 0 then N.send_walk ctx ~walk:[| 0; 1; 2 |] (Payload 0) in
  let net, engine, log = harness ~graph ~action () in
  N.start net 0;
  run engine;
  (match !log with
  | [ (_, _, _, t) ] -> check_float "delivery at 2P" 2.0 t
  | _ -> Alcotest.fail "one delivery");
  ignore net

let test_timing_with_hop_delay () =
  let graph = B.path 3 in
  let cost = CM.deterministic ~c:10.0 ~p:1.0 in
  let action v ctx = if v = 0 then N.send_walk ctx ~walk:[| 0; 1; 2 |] (Payload 0) in
  let net, engine, log = harness ~cost ~graph ~action () in
  N.start net 0;
  run engine;
  match !log with
  | [ (_, _, _, t) ] -> check_float "P + 2C + P" 22.0 t
  | _ -> Alcotest.fail "one delivery"

let test_ncu_serialisation () =
  (* two messages to the same NCU at the same instant are processed
     one software delay apart *)
  let graph = B.star 3 in
  let action v ctx =
    if v <> 0 then N.send_walk ctx ~walk:[| v; 0 |] (Payload v)
  in
  let net, engine, log = harness ~graph ~action () in
  N.start net 1;
  N.start net 2;
  run engine;
  let times = List.sort compare (List.map (fun (_, _, _, t) -> t) !log) in
  Alcotest.(check (list (float 1e-9))) "serialised" [ 2.0; 3.0 ] times

let test_fifo_per_link () =
  (* messages sent in order over one link arrive in order even with
     random hop delays *)
  let graph = B.path 2 in
  let rng = Sim.Rng.create ~seed:5 in
  let cost = CM.uniform_random rng ~c:5.0 ~p:0.001 in
  let action v ctx =
    if v = 0 then
      for i = 1 to 20 do
        N.send_walk ctx ~walk:[| 0; 1 |] (Payload i)
      done
  in
  let net, engine, log = harness ~cost ~graph ~action () in
  N.start net 0;
  run engine;
  let values = List.rev_map (fun (_, _, x, _) -> x) !log in
  Alcotest.(check (list int)) "FIFO order" (List.init 20 (fun i -> i + 1)) values

let test_inactive_link_drops () =
  let graph = B.path 3 in
  let action v ctx = if v = 0 then N.send_walk ctx ~walk:[| 0; 1; 2 |] (Payload 0) in
  let net, engine, log = harness ~failed:[ (1, 2) ] ~graph ~action () in
  N.start net 0;
  run engine;
  check_int "no delivery" 0 (List.length !log);
  check_int "dropped" 1 (Hardware.Metrics.drops (N.metrics net));
  check_int "only first hop happened" 1 (Hardware.Metrics.hops (N.metrics net))

let test_copy_before_dead_link () =
  (* a copy is delivered at the node before the failed link - the
     one-way property the branching-paths broadcast relies on *)
  let graph = B.path 3 in
  let action v ctx =
    if v = 0 then
      N.send_walk ~copy_at:(fun _ -> true) ctx ~walk:[| 0; 1; 2 |] (Payload 0)
  in
  let net, engine, log = harness ~failed:[ (1, 2) ] ~graph ~action () in
  N.start net 0;
  run engine;
  Alcotest.(check (list int)) "node 1 got its copy" [ 1 ]
    (List.map (fun (n, _, _, _) -> n) !log)

let test_in_flight_loss () =
  let graph = B.path 2 in
  let cost = CM.deterministic ~c:10.0 ~p:1.0 in
  let action v ctx = if v = 0 then N.send_walk ctx ~walk:[| 0; 1 |] (Payload 0) in
  let net, engine, log = harness ~cost ~graph ~action () in
  N.start net 0;
  (* the packet is in flight during (1, 11); kill the link at 5 *)
  Sim.Engine.schedule_at engine ~time:5.0 (fun () -> N.set_link net 0 1 ~up:false);
  run engine;
  check_int "lost in flight" 0 (List.length !log);
  check_bool "drop recorded" true (Hardware.Metrics.drops (N.metrics net) >= 1)

let test_drop_in_flight () =
  (* drop_in_flight loses exactly the packets committed to the link,
     without a state change: no on_link_change anywhere, the link still
     carries later traffic, and net.dropped_in_flight counts the loss *)
  let graph = B.path 2 in
  let engine = Sim.Engine.create () in
  let registry = Hardware.Registry.create () in
  let delivered = ref 0 and notified = ref 0 in
  let handlers _ =
    {
      N.on_start = (fun _ -> ());
      on_message = (fun _ ~via:_ (Payload _) -> incr delivered);
      on_link_change = (fun _ ~peer:_ ~up:_ -> incr notified);
    }
  in
  let handlers v =
    if v <> 0 then handlers v
    else
      {
        (handlers v) with
        N.on_start =
          (fun ctx ->
            (* first packet in flight during (1, 11); the glitch at 5 *)
            N.send_walk ctx ~walk:[| 0; 1 |] (Payload 1);
            (* a later packet must cross the same (still up) link *)
            N.set_timer ctx ~delay:20.0 (fun () ->
                N.send_walk ctx ~walk:[| 0; 1 |] (Payload 2)));
      }
  in
  let cost = CM.deterministic ~c:10.0 ~p:1.0 in
  let net = N.create ~registry ~engine ~cost ~graph ~handlers () in
  N.start net 0;
  Sim.Engine.schedule_at engine ~time:5.0 (fun () -> N.drop_in_flight net 0 1);
  run engine;
  check_int "first packet lost, second delivered" 1 !delivered;
  check_int "no link-change notifications" 0 !notified;
  check_bool "link still up" true (N.link_is_up net 0 1);
  (match Hardware.Registry.find_counter registry "net.dropped_in_flight" with
  | Some c -> check_int "in-flight loss counted" 1 (Hardware.Registry.counter_value c)
  | None -> Alcotest.fail "net.dropped_in_flight not registered")

let test_flap_in_flight () =
  (* a down/up round trip while a packet is on the link loses it, even
     though the link is up again when the packet would arrive; a later
     packet crosses the restored link *)
  let graph = B.path 2 in
  let cost = CM.deterministic ~c:10.0 ~p:1.0 in
  let action v ctx =
    if v = 0 then begin
      (* sent at 1, in flight during (1, 11) *)
      N.send_walk ctx ~walk:[| 0; 1 |] (Payload 1);
      (* the timer fires at 19, its activation sends at 20 *)
      N.set_timer ctx ~delay:18.0 (fun () ->
          N.send_walk ctx ~walk:[| 0; 1 |] (Payload 2))
    end
  in
  let engine = Sim.Engine.create () in
  let trace = Sim.Trace.create () in
  let log = ref [] in
  let handlers v =
    {
      N.on_start = (fun ctx -> action v ctx);
      on_message = (fun ctx ~via:_ (Payload x) -> log := (x, N.now ctx) :: !log);
      on_link_change = (fun _ ~peer:_ ~up:_ -> ());
    }
  in
  let net = N.create ~trace ~engine ~cost ~graph ~handlers () in
  N.start net 0;
  Sim.Engine.schedule_at engine ~time:3.0 (fun () -> N.set_link net 0 1 ~up:false);
  Sim.Engine.schedule_at engine ~time:6.0 (fun () -> N.set_link net 0 1 ~up:true);
  run engine;
  let lost =
    List.length
      (List.filter
         (function
           | Sim.Trace.Drop { reason; time; _ } ->
               reason = "lost in flight (link failed)" && time = 11.0
           | _ -> false)
         (Sim.Trace.events trace))
  in
  check_int "first packet lost in flight" 1 lost;
  check_bool "link up again" true (N.link_is_up net 0 1);
  (match !log with
  | [ (2, at) ] -> check_float "second packet delivered" 31.0 at
  | _ -> Alcotest.failf "expected only packet 2, got %d deliveries" (List.length !log))

let test_link_failure_counts_in_flight () =
  (* the pre-existing silent-discard path (link fails under a packet)
     must feed the same counter *)
  let graph = B.path 2 in
  let engine = Sim.Engine.create () in
  let registry = Hardware.Registry.create () in
  let handlers v =
    if v = 0 then
      {
        N.default_handlers with
        N.on_start = (fun ctx -> N.send_walk ctx ~walk:[| 0; 1 |] (Payload 0));
      }
    else N.default_handlers
  in
  let cost = CM.deterministic ~c:10.0 ~p:1.0 in
  let net = N.create ~registry ~engine ~cost ~graph ~handlers () in
  N.start net 0;
  Sim.Engine.schedule_at engine ~time:5.0 (fun () -> N.set_link net 0 1 ~up:false);
  run engine;
  match Hardware.Registry.find_counter registry "net.dropped_in_flight" with
  | Some c -> check_int "loss counted" 1 (Hardware.Registry.counter_value c)
  | None -> Alcotest.fail "net.dropped_in_flight not registered"

let test_set_link_notifies () =
  let graph = B.path 2 in
  let engine = Sim.Engine.create () in
  let events = ref [] in
  let handlers v =
    {
      N.on_start = (fun _ -> ());
      on_message = (fun _ ~via:_ (Payload _) -> ());
      on_link_change = (fun _ ~peer ~up -> events := (v, peer, up) :: !events);
    }
  in
  let net = N.create ~engine ~cost:(CM.new_model ()) ~graph ~handlers () in
  N.set_link net 0 1 ~up:false;
  run engine;
  Alcotest.(check (list (triple int int bool))) "both endpoints notified"
    [ (0, 1, false); (1, 0, false) ]
    (List.sort compare !events);
  check_bool "state down" false (N.link_is_up net 0 1);
  (* restoring notifies again *)
  events := [];
  N.set_link net 0 1 ~up:true;
  run engine;
  check_int "two notifications" 2 (List.length !events);
  (* no-op set_link does not notify *)
  events := [];
  N.set_link net 0 1 ~up:true;
  run engine;
  check_int "no-op silent" 0 (List.length !events)

let test_preset_link_silent () =
  let graph = B.path 2 in
  let engine = Sim.Engine.create () in
  let notified = ref 0 in
  let handlers _ =
    {
      N.on_start = (fun _ -> ());
      on_message = (fun _ ~via:_ (Payload _) -> ());
      on_link_change = (fun _ ~peer:_ ~up:_ -> incr notified);
    }
  in
  let net = N.create ~engine ~cost:(CM.new_model ()) ~graph ~handlers () in
  N.preset_link net 0 1 ~up:false;
  run engine;
  check_int "silent" 0 !notified;
  check_bool "down" false (N.link_is_up net 0 1)

let test_dmax_enforced () =
  let graph = B.path 10 in
  let action v ctx =
    if v = 0 then N.send_walk ctx ~walk:(Array.init 10 Fun.id) (Payload 0)
  in
  let net, engine, _ = harness ~dmax:5 ~graph ~action () in
  N.start net 0;
  check_bool "raises when run" true
    (try run engine; false with Invalid_argument _ -> true)

let test_send_walk_must_start_here () =
  let graph = B.path 3 in
  let action v ctx =
    if v = 0 then N.send_walk ctx ~walk:[| 1; 2 |] (Payload 0)
  in
  let net, engine, _ = harness ~graph ~action () in
  N.start net 0;
  check_bool "raises" true
    (try run engine; false with Invalid_argument _ -> true)

let test_timer_charges_syscall () =
  let graph = B.path 2 in
  let fired = ref nan in
  let engine = Sim.Engine.create () in
  let handlers v =
    {
      N.on_start =
        (fun ctx ->
          if v = 0 then
            N.set_timer ctx ~delay:5.0 (fun () -> fired := Sim.Engine.now engine));
      on_message = (fun _ ~via:_ (Payload _) -> ());
      on_link_change = (fun _ ~peer:_ ~up:_ -> ());
    }
  in
  let net = N.create ~engine ~cost:(CM.new_model ()) ~graph ~handlers () in
  N.start net 0;
  run engine;
  (* start completes at 1; timer set for 6; activation costs P -> 7 *)
  check_float "timer activation time" 7.0 !fired;
  check_int "two syscalls" 2 (Hardware.Metrics.syscalls (N.metrics net))

(* The link state a handler reads for each neighbour is the data-link
   layer's current one. *)
let test_neighbors_reports_state () =
  let graph = B.star 4 in
  let engine = Sim.Engine.create () in
  let seen = ref [] in
  let handlers v =
    {
      N.on_start =
        (fun ctx ->
          if v = 0 then
            let net = N.network ctx in
            seen :=
              List.map
                (fun u -> (u, N.link_is_up net 0 u))
                (Netgraph.Graph.neighbors (N.graph net) 0));
      on_message = (fun _ ~via:_ (Payload _) -> ());
      on_link_change = (fun _ ~peer:_ ~up:_ -> ());
    }
  in
  let net = N.create ~engine ~cost:(CM.new_model ()) ~graph ~handlers () in
  N.preset_link net 0 2 ~up:false;
  N.start net 0;
  run engine;
  Alcotest.(check (list (pair int bool))) "neighbor states"
    [ (1, true); (2, false); (3, true) ]
    !seen

(* The up links of [u] as [iter_active_neighbors] visits them:
   (local link index, peer) pairs. *)
let active_links net u =
  let acc = ref [] in
  N.iter_active_neighbors net u (fun i peer -> acc := (i, peer) :: !acc);
  List.rev !acc

let active_neighbors net u = List.map snd (active_links net u)

let test_active_neighbors () =
  let graph = B.star 4 in
  let engine = Sim.Engine.create () in
  let net =
    N.create ~engine ~cost:(CM.new_model ()) ~graph
      ~handlers:(fun _ -> N.default_handlers)
      ()
  in
  N.preset_link net 0 3 ~up:false;
  Alcotest.(check (list (pair int int)))
    "active" [ (1, 1); (2, 2) ] (active_links net 0)

let test_fail_and_restore_node () =
  let graph = B.star 4 in
  let engine = Sim.Engine.create () in
  let net =
    N.create ~engine ~cost:(CM.new_model ()) ~graph
      ~handlers:(fun _ -> N.default_handlers)
      ()
  in
  check_bool "alive initially" true (N.node_is_alive net 0);
  N.fail_node net 0;
  run engine;
  check_bool "dead" false (N.node_is_alive net 0);
  Alcotest.(check (list int)) "no active neighbours" [] (active_neighbors net 0);
  (* restoring skips links to dead peers *)
  N.fail_node net 2;
  N.restore_node net 0;
  run engine;
  Alcotest.(check (list int)) "links up except to dead node 2" [ 1; 3 ]
    (active_neighbors net 0);
  N.restore_node net 2;
  run engine;
  Alcotest.(check (list int)) "all restored" [ 1; 2; 3 ]
    (active_neighbors net 0)

let test_dmax_drop_policy () =
  let graph = B.path 10 in
  let engine = Sim.Engine.create () in
  let delivered = ref 0 in
  let handlers _ =
    {
      N.on_start =
        (fun ctx ->
          if N.self ctx = 0 then begin
            N.send_walk ctx ~walk:(Array.init 10 Fun.id) (Payload 0);
            N.send_walk ctx ~walk:[| 0; 1 |] (Payload 1)
          end);
      on_message = (fun _ ~via:_ (Payload _) -> incr delivered);
      on_link_change = (fun _ ~peer:_ ~up:_ -> ());
    }
  in
  let net =
    N.create ~dmax:5 ~dmax_policy:`Drop ~engine ~cost:(CM.new_model ()) ~graph
      ~handlers ()
  in
  N.start net 0;
  run engine;
  check_int "only the short packet arrives" 1 !delivered;
  check_bool "oversize counted as drop" true
    (Hardware.Metrics.drops (N.metrics net) >= 1)

let test_traditional_model_timing () =
  (* C=1, P=0: pure hop counting, zero software delay *)
  let graph = B.path 4 in
  let cost = CM.traditional () in
  let action v ctx = if v = 0 then N.send_walk ctx ~walk:[| 0; 1; 2; 3 |] (Payload 0) in
  let net, engine, log = harness ~cost ~graph ~action () in
  N.start net 0;
  run engine;
  match !log with
  | [ (_, _, _, t) ] -> check_float "3 hops at C=1" 3.0 t
  | _ -> Alcotest.fail "one delivery"

let suite =
  [
    Alcotest.test_case "direct delivery" `Quick test_direct_delivery;
    Alcotest.test_case "no deliveries without start" `Quick test_no_delivery_without_start;
    Alcotest.test_case "selective copy" `Quick test_selective_copy;
    Alcotest.test_case "self delivery" `Quick test_self_delivery;
    Alcotest.test_case "timing new model" `Quick test_timing_new_model;
    Alcotest.test_case "timing with hop delay" `Quick test_timing_with_hop_delay;
    Alcotest.test_case "NCU serialisation" `Quick test_ncu_serialisation;
    Alcotest.test_case "FIFO per link" `Quick test_fifo_per_link;
    Alcotest.test_case "inactive link drops" `Quick test_inactive_link_drops;
    Alcotest.test_case "copy before dead link" `Quick test_copy_before_dead_link;
    Alcotest.test_case "in-flight loss" `Quick test_in_flight_loss;
    Alcotest.test_case "drop_in_flight glitch" `Quick test_drop_in_flight;
    Alcotest.test_case "flap while in flight" `Quick test_flap_in_flight;
    Alcotest.test_case "link failure counts in-flight" `Quick
      test_link_failure_counts_in_flight;
    Alcotest.test_case "set_link notifies" `Quick test_set_link_notifies;
    Alcotest.test_case "preset_link silent" `Quick test_preset_link_silent;
    Alcotest.test_case "dmax enforced" `Quick test_dmax_enforced;
    Alcotest.test_case "send_walk origin check" `Quick test_send_walk_must_start_here;
    Alcotest.test_case "timer charges syscall" `Quick test_timer_charges_syscall;
    Alcotest.test_case "neighbors state" `Quick test_neighbors_reports_state;
    Alcotest.test_case "active neighbors" `Quick test_active_neighbors;
    Alcotest.test_case "fail and restore node" `Quick test_fail_and_restore_node;
    Alcotest.test_case "dmax drop policy" `Quick test_dmax_drop_policy;
    Alcotest.test_case "traditional model timing" `Quick test_traditional_model_timing;
  ]
