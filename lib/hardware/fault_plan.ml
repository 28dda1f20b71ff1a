type fault =
  | Link_set of { at : float; u : int; v : int; up : bool }
  | Node_set of { at : float; node : int; alive : bool }
  | Drop_in_flight of { at : float; u : int; v : int }

type t = fault list

let time_of = function
  | Link_set { at; _ } | Node_set { at; _ } | Drop_in_flight { at; _ } -> at

let by_time plan =
  List.stable_sort (fun a b -> Float.compare (time_of a) (time_of b)) plan

let quiescence plan =
  List.fold_left (fun acc f -> Float.max acc (time_of f)) 0.0 plan

let arm ?(on_node = fun ~node:_ ~alive:_ -> ()) net plan =
  let engine = Network.engine net in
  List.iter
    (fun fault ->
      match fault with
      | Link_set { at; u; v; up } ->
          Sim.Engine.schedule_at engine ~time:at (fun () ->
              Network.set_link net u v ~up)
      | Node_set { at; node; alive } ->
          Sim.Engine.schedule_at engine ~time:at (fun () ->
              (* the hook fires only on an actual transition: a recover
                 of an alive node (or crash of a dead one) is a full
                 no-op, so recovery hooks can't be spuriously re-fired
                 by redundant plan entries *)
              let changed = Network.node_is_alive net node = not alive in
              (if alive then Network.restore_node net node
               else Network.fail_node net node);
              if changed then on_node ~node ~alive)
      | Drop_in_flight { at; u; v } ->
          Sim.Engine.schedule_at engine ~time:at (fun () ->
              Network.drop_in_flight net u v))
    plan
