module Monitor = Hardware.Monitor
module Graph = Netgraph.Graph

type report = Monitor.report

type tap = { receives : int array; fifo : Monitor.Fifo.t }

let tap graph =
  {
    receives = Array.make (Graph.n graph) 0;
    fifo = Monitor.Fifo.create ~links:(Graph.directed_edge_count graph) ();
  }

let observe t event =
  (match event with
  | Sim.Trace.Receive { node; _ } -> t.receives.(node) <- t.receives.(node) + 1
  | Sim.Trace.Hop _ -> Monitor.Fifo.observe t.fifo event
  | _ -> ());
  true

let deliveries t = t.receives

let worst_node counts limit_of =
  let worst = ref None in
  Array.iteri
    (fun v c ->
      if c > limit_of v then
        match !worst with
        | Some (_, c') when c' >= c -> ()
        | _ -> worst := Some (v, c))
    counts;
  !worst

let at_most_once_delivery ~deliveries =
  match worst_node deliveries (fun _ -> 1) with
  | None ->
      {
        Monitor.monitor = "one-way-monotone";
        ok = true;
        detail = "no NCU accepted the payload twice";
      }
  | Some (v, c) ->
      {
        Monitor.monitor = "one-way-monotone";
        ok = false;
        detail = Printf.sprintf "node %d received the payload %d times" v c;
      }

let degree_bounded_delivery ~graph ~deliveries =
  match worst_node deliveries (fun v -> Graph.degree graph v) with
  | None ->
      {
        Monitor.monitor = "flood-degree-bound";
        ok = true;
        detail = "every node heard at most once per incident link";
      }
  | Some (v, c) ->
      {
        Monitor.monitor = "flood-degree-bound";
        ok = false;
        detail =
          Printf.sprintf "node %d (degree %d) received %d copies" v
            (Graph.degree graph v) c;
      }

(* The root's component in the final state: a BFS over the graph that
   skips links the schedule leaves down. *)
let surviving_component ~graph ~schedule ~root =
  let { Schedule.up; _ } = Schedule.final_state ~graph schedule in
  let inside = Array.make (Graph.n graph) false in
  let queue = Array.make (Graph.n graph) root in
  inside.(root) <- true;
  let tail = ref 1 in
  let head = ref 0 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    for i = 1 to Graph.degree graph u do
      let d = Graph.edge_id graph u i in
      let v = Graph.edge_target graph d in
      if up.(Graph.edge_uid graph d) && not inside.(v) then begin
        inside.(v) <- true;
        queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  inside

let static_component_scope ~graph ~schedule ~root ~deliveries ~reached =
  let in_component = surviving_component ~graph ~schedule ~root in
  let size =
    Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 in_component
  in
  let escaped = ref None in
  let delivered = ref 0 in
  Array.iteri
    (fun v c ->
      if c > 0 || (reached.(v) && v <> root) then begin
        delivered := !delivered + 1;
        if not in_component.(v) && !escaped = None then escaped := Some v
      end)
    deliveries;
  match !escaped with
  | Some v ->
      {
        Monitor.monitor = "component-scope";
        ok = false;
        detail =
          Printf.sprintf
            "delivery at node %d outside the root's surviving component" v;
      }
  | None ->
      let ok = !delivered <= size in
      {
        Monitor.monitor = "component-scope";
        ok;
        detail =
          Printf.sprintf
            "%d deliveries within the root's %d-node surviving component"
            !delivered size;
      }

let at_most_one_leader ~leaders =
  match leaders with
  | [] ->
      {
        Monitor.monitor = "one-leader";
        ok = true;
        detail = "no leader declared (liveness forfeited to faults)";
      }
  | [ leader ] ->
      {
        Monitor.monitor = "one-leader";
        ok = true;
        detail = Printf.sprintf "unique leader %d" leader;
      }
  | leaders ->
      {
        Monitor.monitor = "one-leader";
        ok = false;
        detail =
          Printf.sprintf "%d leaders declared: %s" (List.length leaders)
            (String.concat ", " (List.map string_of_int leaders));
      }

let believed_consistent ~leaders ~believed =
  let ghost = ref None in
  Array.iteri
    (fun v b ->
      match b with
      | Some l when not (List.mem l leaders) && !ghost = None ->
          ghost := Some (v, l)
      | _ -> ())
    believed;
  match !ghost with
  | None ->
      {
        Monitor.monitor = "believed-leader";
        ok = true;
        detail = "every announcement names a declared leader";
      }
  | Some (v, l) ->
      {
        Monitor.monitor = "believed-leader";
        ok = false;
        detail = Printf.sprintf "node %d believes in undeclared leader %d" v l;
      }

let election_budget_held ~n ~deliveries =
  let report = Monitor.election_budget ~n ~election_syscalls:deliveries in
  { report with Monitor.monitor = "election-budget" }

let convergence ~converged ~rounds =
  {
    Monitor.monitor = "theorem1-convergence";
    ok = converged;
    detail =
      (if converged then
         Printf.sprintf "all surviving components consistent after %d rounds"
           rounds
       else Printf.sprintf "still inconsistent after %d rounds" rounds);
  }

let fifo_per_link t = Monitor.Fifo.report t.fifo

(* -- Liveness oracles (healing schedules only) ------------------------- *)

let liveness_all_reached ~reached =
  let missing = ref 0 in
  let first = ref None in
  Array.iteri
    (fun v r ->
      if not r then begin
        incr missing;
        if !first = None then first := Some v
      end)
    reached;
  match !first with
  | None ->
      {
        Monitor.monitor = "liveness-all-reached";
        ok = true;
        detail = "every node accepted the payload";
      }
  | Some v ->
      {
        Monitor.monitor = "liveness-all-reached";
        ok = false;
        detail =
          Printf.sprintf
            "%d node(s) never accepted the payload (first: %d) despite the \
             schedule healing"
            !missing v;
      }

let liveness_unique_leader ~leaders ~believed =
  match leaders with
  | [ leader ] ->
      let dissent = ref None in
      Array.iteri
        (fun v b -> if b <> Some leader && !dissent = None then dissent := Some v)
        believed;
      (match !dissent with
      | None ->
          {
            Monitor.monitor = "liveness-unique-leader";
            ok = true;
            detail =
              Printf.sprintf "leader %d elected and universally believed"
                leader;
          }
      | Some v ->
          {
            Monitor.monitor = "liveness-unique-leader";
            ok = false;
            detail =
              Printf.sprintf
                "leader %d elected but node %d believes %s" leader v
                (match believed.(v) with
                | None -> "nobody"
                | Some l -> string_of_int l);
          })
  | [] ->
      {
        Monitor.monitor = "liveness-unique-leader";
        ok = false;
        detail = "no leader declared despite the schedule healing";
      }
  | leaders ->
      {
        Monitor.monitor = "liveness-unique-leader";
        ok = false;
        detail =
          Printf.sprintf "%d leaders declared: %s" (List.length leaders)
            (String.concat ", " (List.map string_of_int leaders));
      }

let election_budget_recovering ~n ~restarts ~deliveries =
  let budget = 6 * n * (1 + restarts) in
  {
    Monitor.monitor = "election-recovery-budget";
    ok = deliveries <= budget;
    detail =
      Printf.sprintf
        "%d tour/return deliveries against 6n(1+restarts) = %d (n=%d, %d \
         restart(s))"
        deliveries budget n restarts;
  }

let retry_budget_respected ~give_ups =
  {
    Monitor.monitor = "retry-budget";
    ok = give_ups = 0;
    detail =
      (if give_ups = 0 then "no watchdog exhausted its retry budget"
       else
         Printf.sprintf
           "%d watchdog(s) gave up after exhausting the retry budget — the \
            healed run should have recovered sooner"
           give_ups);
  }
