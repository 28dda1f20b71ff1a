module Graph = Netgraph.Graph
module Tree = Netgraph.Tree
module Network = Hardware.Network

type result = {
  value : int;
  expected : int;
  time : float;
  syscalls : int;
  hops : int;
  messages : int;
  t_opt_complete : float;
  max_route : int;
}

type msg = Partial of int

(* Match the shape's breadth-first numbering (0 = root) with the
   graph's breadth-first order from [root], so that tree-adjacent
   nodes tend to be graph-close. *)
let embedding graph ~root shape =
  let order = Netgraph.Traversal.bfs_order graph ~root in
  let placement = Array.of_list order in
  let tree = Optimal_tree.to_netgraph_tree shape in
  Tree.map_nodes (fun v -> placement.(v)) tree

let run ?inputs ?(root = 0) ~c ~p ~graph ~spec () =
  if not (Graph.is_connected graph) then
    invalid_arg "Aggregate.run: the graph must be connected";
  let n = Graph.n graph in
  if root < 0 || root >= n then invalid_arg "Aggregate.run: root out of range";
  let params = { Optimal_tree.c; p } in
  let shape = Optimal_tree.optimal_tree params ~n in
  let tree = embedding graph ~root shape in
  let inputs =
    match inputs with
    | None ->
        let alphabet = Array.of_list spec.Sensitive.alphabet in
        Array.init n (fun i -> alphabet.(i mod Array.length alphabet))
    | Some a ->
        if Array.length a <> n then
          invalid_arg "Aggregate.run: inputs length mismatch";
        Array.iter
          (fun x ->
            if not (List.mem x spec.Sensitive.alphabet) then
              invalid_arg "Aggregate.run: input outside the alphabet")
          a;
        a
  in
  let engine = Sim.Engine.create () in
  let cost = Hardware.Cost_model.deterministic ~c ~p in
  let acc = Array.copy inputs in
  let pending = Array.make n 0 in
  let finish_time = ref nan in
  let root_value = ref None in
  let max_route = ref 0 in
  let forward ctx v =
    match Tree.parent tree v with
    | None ->
        root_value := Some acc.(v);
        finish_time := Sim.Engine.now engine
    | Some parent -> (
        match Netgraph.Paths.shortest_path graph ~src:v ~dst:parent with
        | Some walk ->
            max_route := max !max_route (List.length walk - 1);
            Network.send_walk ~label:"aggregate" ctx ~walk:(Array.of_list walk)
              (Partial acc.(v))
        | None -> assert false (* connected *))
  in
  let handlers v =
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
  let net = Network.create ~engine ~cost ~graph ~handlers () in
  Network.start_all ~label:"trigger" net;
  (match Sim.Engine.run engine with
  | Sim.Engine.Quiescent -> ()
  | _ -> assert false);
  let m = Network.metrics net in
  {
    value = (match !root_value with Some v -> v | None -> assert false);
    expected = Sensitive.fold spec (Array.to_list inputs);
    time = !finish_time;
    syscalls = Hardware.Metrics.syscalls m;
    hops = Hardware.Metrics.hops m;
    messages = Hardware.Metrics.sends m;
    t_opt_complete = Optimal_tree.optimal_time params ~n;
    max_route = !max_route;
  }
