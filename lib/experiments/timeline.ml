(* An ASCII timeline of a simulated execution: one lane per node, one
   column per time unit, showing when each NCU was activated and when
   packets hopped.  Used by the CLI's `timeline` subcommand to make the
   cost model tangible: under C = 0 / P = 1 the branching-paths
   broadcast paints a log-depth wavefront while flooding paints a
   diameter-deep one with repeated activations per node. *)

let lanes_of_trace ~n ~columns trace =
  let width = columns in
  let lanes = Array.init n (fun _ -> Bytes.make width '.') in
  let mark node time char =
    if node >= 0 && node < n then begin
      let col = int_of_float time in
      if col >= 0 && col < width then begin
        let current = Bytes.get lanes.(node) col in
        (* activations outrank hops in the display *)
        let outranked = current = '.' || (current = '-' && char <> '-') in
        if outranked then Bytes.set lanes.(node) col char
      end
    end
  in
  List.iter
    (fun event ->
      match event with
      | Sim.Trace.Receive { node; time; _ } -> mark node time 'R'
      | Sim.Trace.Syscall { node; time; _ } -> mark node time 'S'
      | Sim.Trace.Hop { dst; time; _ } -> mark dst time '-'
      | Sim.Trace.Drop { node; time; _ } -> mark node time 'x'
      | Sim.Trace.Send _ | Sim.Trace.Link_change _ | Sim.Trace.Custom _ -> ())
    (Sim.Trace.events trace);
  Array.map Bytes.to_string lanes

let render ~n ~columns trace =
  let lanes = lanes_of_trace ~n ~columns trace in
  let b = Buffer.create 1024 in
  Buffer.add_string b "  time ";
  for t = 0 to columns - 1 do
    Buffer.add_char b (Char.chr (Char.code '0' + (t mod 10)))
  done;
  Buffer.add_char b '\n';
  Array.iteri
    (fun v lane -> Buffer.add_string b (Printf.sprintf "  n%-3d %s\n" v lane))
    lanes;
  Buffer.add_string b
    "  S = software activation, R = packet delivered to the NCU,\n\
    \  - = packet passed through the switch only, x = packet dropped\n";
  Buffer.contents b

let broadcast_timeline ~algorithm ~graph ~root =
  let execute :
      'msg.
      (reached:bool array ->
      view:Netgraph.Graph.t ->
      int ->
      'msg Hardware.Network.handlers) ->
      string =
   fun spec ->
    let engine = Sim.Engine.create () in
    let trace = Sim.Trace.create () in
    let reached = Array.make (Netgraph.Graph.n graph) false in
    let net =
      Hardware.Network.create ~trace ~engine
        ~cost:(Hardware.Cost_model.new_model ())
        ~graph
        ~handlers:(spec ~reached ~view:graph)
        ()
    in
    Hardware.Network.start net root;
    ignore (Sim.Engine.run engine : Sim.Engine.outcome);
    let horizon =
      List.fold_left
        (fun acc e -> Float.max acc (Sim.Trace.time_of e))
        0.0
        (Sim.Trace.events trace)
    in
    render ~n:(Netgraph.Graph.n graph) ~columns:(int_of_float horizon + 2) trace
  in
  match algorithm with
  | `Branching ->
      execute
        (Core.Branching_paths.spec ?precomputed:None ?routes:None
           ?recovery:None ~multicast:true)
  | `Flooding -> execute (Core.Flooding.spec ?recovery:None ?ack_parent:None)

let run () =
  let g = Netgraph.Builders.grid ~rows:4 ~cols:4 in
  print_endline "timeline: branching-paths broadcast on a 4x4 grid (C=0, P=1)";
  print_string (broadcast_timeline ~algorithm:`Branching ~graph:g ~root:0);
  print_endline "\ntimeline: flooding broadcast on the same grid";
  print_string (broadcast_timeline ~algorithm:`Flooding ~graph:g ~root:0)
