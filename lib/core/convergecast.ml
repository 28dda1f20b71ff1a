module Tree = Netgraph.Tree
module Network = Hardware.Network

type result = {
  value : int;
  expected : int;
  time : float;
  predicted : float;
  syscalls : int;
  hops : int;
  messages : int;
}

type msg = Partial of int

let default_inputs spec n =
  let alphabet = Array.of_list spec.Sensitive.alphabet in
  Array.init n (fun i -> alphabet.(i mod Array.length alphabet))

let execute ?inputs ?random_delays ~params ~shape ~spec () =
  let n = Optimal_tree.size shape in
  let tree = Optimal_tree.to_netgraph_tree shape in
  let inputs =
    match inputs with
    | None -> default_inputs spec n
    | Some a ->
        if Array.length a <> n then
          invalid_arg "Convergecast.run: inputs length mismatch";
        Array.iter
          (fun x ->
            if not (List.mem x spec.Sensitive.alphabet) then
              invalid_arg "Convergecast.run: input outside the alphabet")
          a;
        a
  in
  let { Optimal_tree.c; p } = params in
  let cost =
    match random_delays with
    | None -> Hardware.Cost_model.deterministic ~c ~p
    | Some rng -> Hardware.Cost_model.uniform_random rng ~c ~p
  in
  let graph = Netgraph.Builders.complete (max n 2) in
  let engine = Sim.Engine.create () in
  let trace = Sim.Trace.create () in
  let acc = Array.map (fun x -> x) inputs in
  let pending = Array.make n 0 in
  let finish_time = ref nan in
  let root_value = ref None in
  let forward ctx v =
    match Tree.parent tree v with
    | None ->
        root_value := Some acc.(v);
        finish_time := Sim.Engine.now engine
    | Some parent ->
        Network.send_walk ~label:"convergecast" ctx ~walk:[| v; parent |]
          (Partial acc.(v))
  in
  let handlers v =
    if v >= n then Network.default_handlers
    else
      {
        Network.on_start =
          (fun ctx ->
            pending.(v) <- List.length (Tree.children tree v);
            if pending.(v) = 0 then forward ctx v);
        on_message =
          (fun ctx ~via:_ (Partial x) ->
            acc.(v) <- spec.Sensitive.op acc.(v) x;
            pending.(v) <- pending.(v) - 1;
            if pending.(v) = 0 then forward ctx v);
        on_link_change = (fun _ ~peer:_ ~up:_ -> ());
      }
  in
  let net = Network.create ~trace ~engine ~cost ~graph ~handlers () in
  for v = 0 to n - 1 do
    Network.start ~label:"trigger" net v
  done;
  (match Sim.Engine.run engine with
  | Sim.Engine.Quiescent -> ()
  | _ -> assert false);
  let m = Network.metrics net in
  let value = match !root_value with Some v -> v | None -> assert false in
  let r =
    {
      value;
      expected = Sensitive.fold spec (Array.to_list inputs);
      time = !finish_time;
      predicted = Optimal_tree.predicted_completion params shape;
      syscalls = Hardware.Metrics.syscalls m;
      hops = Hardware.Metrics.hops m;
      messages = Hardware.Metrics.sends m;
    }
  in
  (r, trace, !finish_time)

let run ?inputs ?random_delays ~params ~shape ~spec () =
  let r, _, _ = execute ?inputs ?random_delays ~params ~shape ~spec () in
  r

let trace_run ~params ~shape ~spec () =
  execute ~params ~shape ~spec ()
