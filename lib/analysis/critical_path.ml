type step_kind =
  | Delivery
  | Activation
  | Switch
  | Injection

type step = {
  idx : int;
  kind : step_kind;
  node : int;
  link : (int * int) option;
  time : float;
  elapsed : float;
  work : float;
  wait : float;
  label : string;
}

type t = {
  steps : step list;
  t_start : float;
  t_end : float;
  span : float;
  deliveries : int;
  activations : int;
  hops : int;
  sends : int;
  p_time : float;
  c_time : float;
  queue_wait : float;
  fifo_wait : float;
  per_node : (int * float) list;
  per_phase : (string * float) list;
  per_link : ((int * int) * float) list;
  truncated : int;
}

(* The intrinsic cost the model charges for completing one event. *)
let work_bound ~c ~p (e : Sim.Trace.event) =
  match e with
  | Sim.Trace.Receive _ | Sim.Trace.Syscall _ -> p
  | Sim.Trace.Hop _ -> c
  | _ -> 0.0

(* When is event [s] allowed to complete, given that its predecessor
   [p] (via an edge of [kind]) completed at [tp]?  This is the runtime's
   scheduling rule read backwards:
   - a hop completes a switching delay after the packet's previous
     event, but no earlier than the previous packet on the same FIFO
     link;
   - an activation starts at the later of its trigger's arrival and the
     NCU coming free, and completes one software delay later — both
     in-edges constrain the start, so the [P] is the event's own work,
     not part of the constraint;
   - a send fires within the activation that performed it. *)
let constraint_time ~c (s : Sim.Trace.event) kind tp =
  match (s, kind) with
  | Sim.Trace.Hop _, Event_dag.Message -> tp +. c
  | _ -> tp

let kind_priority = function
  | Event_dag.Message -> 3
  | Event_dag.Fifo -> 2
  | Event_dag.Queue -> 1
  | Event_dag.Local -> 0

(* Binding predecessor: the one whose constraint releases last; ties
   prefer the packet path (the explanation a profile reader wants),
   then the later trace position — all deterministic. *)
let binding_pred ~c dag i =
  let s = Event_dag.event dag i in
  List.fold_left
    (fun best (p, kind) ->
      let t = constraint_time ~c s kind (Event_dag.time dag p) in
      match best with
      | Some (_, bk, bt)
        when t > bt || (t = bt && kind_priority kind >= kind_priority bk) ->
          (* predecessors arrive in ascending trace order, so >= also
             resolves full ties toward the later event *)
          Some (p, kind, t)
      | None -> Some (p, kind, t)
      | some -> some)
    None (Event_dag.preds dag i)

let step_of ~c ~p dag prev_time i =
  let e = Event_dag.event dag i in
  let time = Event_dag.time dag i in
  let kind, node, link, label =
    match e with
    | Sim.Trace.Receive { node; label; _ } -> (Delivery, node, None, label)
    | Sim.Trace.Syscall { node; label; _ } -> (Activation, node, None, label)
    | Sim.Trace.Hop { src; dst; msg_id; _ } ->
        let label =
          match Event_dag.send_label dag msg_id with Some l -> l | None -> ""
        in
        (Switch, dst, Some (src, dst), label)
    | Sim.Trace.Send { node; label; _ } -> (Injection, node, None, label)
    | Sim.Trace.Drop { node; _ } -> (Injection, node, None, "drop")
    | Sim.Trace.Link_change { u; v; _ } -> (Injection, u, Some (u, v), "link")
    | Sim.Trace.Custom { label; _ } -> (Injection, -1, None, label)
  in
  let bound = work_bound ~c ~p e in
  let elapsed, work =
    match prev_time with
    | Some tp ->
        let elapsed = Float.max 0.0 (time -. tp) in
        (elapsed, Float.min bound elapsed)
    | None ->
        (* first step: the path starts when this event's work began *)
        let work = Float.min bound time in
        (work, work)
  in
  { idx = i; kind; node; link; time; elapsed; work; wait = elapsed -. work; label }

let phase_name label = if label = "" then "(unlabelled)" else label

let attribution steps =
  let nodes = Hashtbl.create 16 in
  let phases = Hashtbl.create 16 in
  let links = Hashtbl.create 16 in
  let bump tbl key v =
    if v > 0.0 then
      match Hashtbl.find_opt tbl key with
      | Some r -> r := !r +. v
      | None -> Hashtbl.add tbl key (ref v)
  in
  List.iter
    (fun s ->
      bump phases (phase_name s.label) s.elapsed;
      match s.link with
      | Some l when s.kind = Switch -> bump links l s.elapsed
      | _ -> bump nodes s.node s.elapsed)
    steps;
  let dump tbl =
    List.sort
      (fun (ka, a) (kb, b) -> if a = b then compare ka kb else compare b a)
      (Hashtbl.fold (fun k r acc -> (k, !r) :: acc) tbl [])
  in
  (dump nodes, dump phases, dump links)

let compute ?cost dag =
  let cost =
    match cost with Some c -> c | None -> Hardware.Cost_model.new_model ()
  in
  let c = cost.Hardware.Cost_model.c and p = cost.Hardware.Cost_model.p in
  match Event_dag.terminal dag with
  | None -> None
  | Some last ->
      let rec walk acc i =
        match binding_pred ~c dag i with
        | Some (pr, _, _) -> walk (i :: acc) pr
        | None -> i :: acc
      in
      let indices = walk [] last in
      let steps, _ =
        List.fold_left
          (fun (acc, prev) i ->
            let s = step_of ~c ~p dag prev i in
            (s :: acc, Some s.time))
          ([], None) indices
      in
      let steps = List.rev steps in
      let first = List.hd steps in
      let t_end = Event_dag.time dag last in
      let t_start = first.time -. first.elapsed in
      let count k = List.length (List.filter (fun s -> s.kind = k) steps) in
      let sum f = List.fold_left (fun a s -> a +. f s) 0.0 steps in
      let per_node, per_phase, per_link = attribution steps in
      Some
        {
          steps;
          t_start;
          t_end;
          span = t_end -. t_start;
          deliveries = count Delivery;
          activations = count Activation;
          hops = count Switch;
          sends = count Injection;
          p_time =
            sum (fun s ->
                match s.kind with Delivery | Activation -> s.work | _ -> 0.0);
          c_time = sum (fun s -> if s.kind = Switch then s.work else 0.0);
          queue_wait =
            sum (fun s ->
                match s.kind with Delivery | Activation -> s.wait | _ -> 0.0);
          fifo_wait = sum (fun s -> if s.kind = Switch then s.wait else 0.0);
          per_node;
          per_phase;
          per_link;
          truncated = Event_dag.truncated dag;
        }

let critical_indices t = List.map (fun s -> s.idx) t.steps

(* -- slack ------------------------------------------------------------ *)

let slack ?cost dag =
  let cost =
    match cost with Some c -> c | None -> Hardware.Cost_model.new_model ()
  in
  let c = cost.Hardware.Cost_model.c and p = cost.Hardware.Cost_model.p in
  let n = Event_dag.size dag in
  let horizon =
    match Event_dag.terminal dag with
    | Some i -> Event_dag.time dag i
    | None -> Event_dag.t_end dag
  in
  let slack = Array.make n 0.0 in
  (* edges always point forward in trace order, so a reverse index scan
     is a topological order *)
  for i = n - 1 downto 0 do
    let ti = Event_dag.time dag i in
    match Event_dag.succs dag i with
    | [] -> slack.(i) <- Float.max 0.0 (horizon -. ti)
    | ss ->
        slack.(i) <-
          List.fold_left
            (fun acc (s, kind) ->
              let e = Event_dag.event dag s in
              let ts = Event_dag.time dag s in
              (* when does [s]'s own constraint window open relative to
                 this predecessor? *)
              let gap =
                match (e, kind) with
                | Sim.Trace.Hop _, Event_dag.Message -> ts -. c -. ti
                | (Sim.Trace.Receive _ | Sim.Trace.Syscall _), _ ->
                    ts -. p -. ti
                | _ -> ts -. ti
              in
              Float.min acc (slack.(s) +. Float.max 0.0 gap))
            infinity ss
  done;
  slack

type slack_stats = {
  events : int;
  zero_slack : int;
  max_slack : float;
  mean_slack : float;
}

let slack_stats ?cost dag =
  let s = slack ?cost dag in
  let n = Array.length s in
  let zero = ref 0 and sum = ref 0.0 and mx = ref 0.0 in
  Array.iter
    (fun v ->
      if v <= 1e-9 then incr zero;
      sum := !sum +. v;
      if v > !mx then mx := v)
    s;
  {
    events = n;
    zero_slack = !zero;
    max_slack = !mx;
    mean_slack = (if n = 0 then 0.0 else !sum /. float_of_int n);
  }

(* -- rendering -------------------------------------------------------- *)

let kind_name = function
  | Delivery -> "delivery"
  | Activation -> "activation"
  | Switch -> "switch"
  | Injection -> "send"

let pp_step ppf s =
  Format.fprintf ppf "[%8.3f] %-10s" s.time (kind_name s.kind);
  (match s.link with
  | Some (u, v) -> Format.fprintf ppf " %d->%d" u v
  | None -> Format.fprintf ppf " @%d" s.node);
  if s.label <> "" then Format.fprintf ppf " %s" s.label;
  Format.fprintf ppf "  work %g" s.work;
  if s.wait > 0.0 then Format.fprintf ppf " wait %g" s.wait

let pp_table ppf name rows render =
  if rows <> [] then begin
    Format.fprintf ppf "  %s:" name;
    List.iteri
      (fun i (k, v) ->
        if i < 5 then Format.fprintf ppf " %s=%g" (render k) v)
      rows;
    let extra = List.length rows - 5 in
    if extra > 0 then Format.fprintf ppf " (+%d more)" extra;
    Format.fprintf ppf "@."
  end

let pp ppf t =
  if t.truncated > 0 then
    Format.fprintf ppf
      "WARNING: trace truncated (%d events dropped) - the path below \
       explains only the retained suffix@."
      t.truncated;
  Format.fprintf ppf
    "critical path: span %g (t %g -> %g), %d steps = %d deliveries + %d \
     activations + %d hops + %d sends@."
    t.span t.t_start t.t_end (List.length t.steps) t.deliveries t.activations
    t.hops t.sends;
  Format.fprintf ppf
    "  cost split : P %g (processing)  C %g (switching)  queue wait %g  \
     fifo wait %g@."
    t.p_time t.c_time t.queue_wait t.fifo_wait;
  pp_table ppf "per phase" t.per_phase (fun s -> s);
  pp_table ppf "per node " t.per_node (fun v -> Printf.sprintf "node%d" v);
  pp_table ppf "per link " t.per_link (fun (u, v) ->
      Printf.sprintf "%d->%d" u v);
  let steps = Array.of_list t.steps in
  let n = Array.length steps in
  if n <= 32 then Array.iter (fun s -> Format.fprintf ppf "  %a@." pp_step s) steps
  else begin
    for i = 0 to 7 do
      Format.fprintf ppf "  %a@." pp_step steps.(i)
    done;
    Format.fprintf ppf "  ... (%d steps elided) ...@." (n - 16);
    for i = n - 8 to n - 1 do
      Format.fprintf ppf "  %a@." pp_step steps.(i)
    done
  end

module J = Sim.Json

let to_json t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       {|{"span":%s,"t_start":%s,"t_end":%s,"steps":%d,"deliveries":%d,"activations":%d,"hops":%d,"sends":%d,"p_time":%s,"c_time":%s,"queue_wait":%s,"fifo_wait":%s,"truncated":%d|}
       (J.float t.span) (J.float t.t_start) (J.float t.t_end)
       (List.length t.steps) t.deliveries t.activations t.hops t.sends
       (J.float t.p_time) (J.float t.c_time) (J.float t.queue_wait)
       (J.float t.fifo_wait) t.truncated);
  let array name items render =
    Buffer.add_string buf (Printf.sprintf {|,"%s":[|} name);
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (render x))
      items;
    Buffer.add_char buf ']'
  in
  array "per_node" t.per_node (fun (v, tm) ->
      Printf.sprintf {|{"node":%d,"time":%s}|} v (J.float tm));
  array "per_phase" t.per_phase (fun (ph, tm) ->
      Printf.sprintf {|{"phase":%s,"time":%s}|} (J.string ph) (J.float tm));
  array "per_link" t.per_link (fun ((u, v), tm) ->
      Printf.sprintf {|{"src":%d,"dst":%d,"time":%s}|} u v (J.float tm));
  array "path" t.steps (fun s ->
      Printf.sprintf
        {|{"idx":%d,"kind":"%s","node":%d,"time":%s,"elapsed":%s,"work":%s,"wait":%s,"label":%s}|}
        s.idx (kind_name s.kind) s.node (J.float s.time)
        (J.float s.elapsed) (J.float s.work) (J.float s.wait)
        (J.string s.label));
  Buffer.add_char buf '}';
  Buffer.contents buf

let slack_stats_json s =
  Printf.sprintf
    {|{"events":%d,"zero_slack":%d,"max_slack":%s,"mean_slack":%s}|}
    s.events s.zero_slack (J.float s.max_slack) (J.float s.mean_slack)
