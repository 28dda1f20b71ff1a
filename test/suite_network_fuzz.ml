(* Fuzzing the network runtime: random route traffic under random
   link/node churn must never crash, must keep the counters coherent,
   and must always drain to quiescence. *)

module N = Hardware.Network
module A = Hardware.Anr
module CM = Hardware.Cost_model
module B = Netgraph.Builders

type msg = Probe of int

let random_walk rng g ~from ~length =
  let rec extend v acc remaining =
    if remaining = 0 then List.rev acc
    else
      match Netgraph.Graph.neighbors g v with
      | [] -> List.rev acc
      | peers ->
          let next = Sim.Rng.pick rng peers in
          extend next (next :: acc) (remaining - 1)
  in
  extend from [ from ] length

let fuzz_once ~seed =
  let rng = Sim.Rng.create ~seed in
  let n = Sim.Rng.int_in rng 3 24 in
  let g = B.random_connected rng ~n ~extra_edges:(Sim.Rng.int rng (n + 1)) in
  let engine = Sim.Engine.create () in
  let cost =
    if Sim.Rng.bool rng then CM.new_model ()
    else CM.uniform_random rng ~c:(Sim.Rng.float rng 3.0) ~p:(0.1 +. Sim.Rng.float rng 2.0)
  in
  let deliveries = ref 0 in
  let handlers v =
    {
      N.on_start =
        (fun ctx ->
          (* a burst of random-walk packets with random copy marks *)
          for _ = 1 to Sim.Rng.int_in rng 1 4 do
            let walk = random_walk rng g ~from:v ~length:(Sim.Rng.int_in rng 1 8) in
            if List.length walk >= 2 then
              N.send_walk
                ~copy_at:(fun _ -> Sim.Rng.bool rng)
                ctx ~walk:(Array.of_list walk) (Probe v)
          done);
      on_message =
        (fun ctx ~via:_ (Probe _) ->
          incr deliveries;
          (* occasionally reply with another short packet *)
          if Sim.Rng.chance rng 0.2 then
            let self = N.self ctx in
            let peers = ref [] in
            N.iter_active_neighbors (N.network ctx) self (fun _ peer ->
                peers := peer :: !peers);
            match List.rev !peers with
            | [] -> ()
            | peers ->
                let peer = Sim.Rng.pick rng peers in
                N.send_walk ctx ~walk:[| self; peer |] (Probe self));
      on_link_change = (fun _ ~peer:_ ~up:_ -> ());
    }
  in
  let net = N.create ~engine ~cost ~graph:g ~handlers () in
  N.start_all net;
  (* random churn while traffic is flowing *)
  let edges = Array.of_list (Netgraph.Graph.edges g) in
  for _ = 1 to Sim.Rng.int rng 6 do
    let u, v = Sim.Rng.pick_array rng edges in
    Sim.Engine.schedule_at engine ~time:(Sim.Rng.float rng 10.0) (fun () ->
        N.set_link net u v ~up:(Sim.Rng.bool rng))
  done;
  if Sim.Rng.chance rng 0.4 then begin
    let victim = Sim.Rng.int rng n in
    Sim.Engine.schedule_at engine ~time:(Sim.Rng.float rng 5.0) (fun () ->
        N.fail_node net victim);
    Sim.Engine.schedule_at engine ~time:(10.0 +. Sim.Rng.float rng 5.0) (fun () ->
        N.restore_node net victim)
  end;
  let outcome = Sim.Engine.run ~max_events:200_000 engine in
  let m = N.metrics net in
  (* coherence: the run drains; every delivery was counted as a syscall;
     hops/sends are non-negative and bounded by the event budget *)
  outcome = Sim.Engine.Quiescent
  && Hardware.Metrics.syscalls m >= !deliveries
  && Hardware.Metrics.hops m >= 0
  && Hardware.Metrics.sends m >= 0
  && Hardware.Metrics.drops m >= 0

let qcheck_fuzz =
  QCheck.Test.make ~name:"network fuzz: random traffic + churn stays coherent"
    ~count:150
    QCheck.(int_range 0 1_000_000)
    (fun seed -> fuzz_once ~seed)

let suite = [ QCheck_alcotest.to_alcotest qcheck_fuzz ]
