module Network = Hardware.Network

type outcome = {
  leader : int;
  syscalls : int;
  hops : int;
  time : float;
  phases : int;
}

(* -- Hirschberg-Sinclair on a ring ------------------------------------ *)

type hs_msg =
  | Probe of { id : int; phase : int; ttl : int; clockwise : bool }
  | Reply of { id : int; phase : int; clockwise : bool }
      (** travelling back toward the prober, in direction [clockwise] *)
  | Winner of { id : int; ttl : int }

type hs_state = {
  mutable beaten : bool;
  mutable phase : int;
  mutable pending_replies : int;
  mutable is_leader : bool;
  mutable known_leader : int option;
}

let bit_reversal_priorities ~n =
  let bits =
    let rec go b = if 1 lsl b >= n then b else go (b + 1) in
    go 0
  in
  if 1 lsl bits <> n then
    invalid_arg "bit_reversal_priorities: n must be a power of two";
  Array.init n (fun v ->
      let r = ref 0 in
      for b = 0 to bits - 1 do
        if v land (1 lsl b) <> 0 then r := !r lor (1 lsl (bits - 1 - b))
      done;
      !r)

let run_hirschberg_sinclair ?(cost = Hardware.Cost_model.new_model ())
    ?priorities ~n () =
  if n < 3 then invalid_arg "run_hirschberg_sinclair: n >= 3";
  let prio =
    match priorities with
    | None -> Array.init n Fun.id
    | Some p ->
        if Array.length p <> n then
          invalid_arg "run_hirschberg_sinclair: priorities length mismatch";
        let seen = Array.make n false in
        Array.iter
          (fun x ->
            if x < 0 || x >= n || seen.(x) then
              invalid_arg "run_hirschberg_sinclair: not a permutation";
            seen.(x) <- true)
          p;
        Array.copy p
  in
  let graph = Netgraph.Builders.ring n in
  let engine = Sim.Engine.create () in
  let states =
    Array.init n (fun _ ->
        {
          beaten = false;
          phase = 0;
          pending_replies = 0;
          is_leader = false;
          known_leader = None;
        })
  in
  let max_phase = ref 0 in
  let next v = (v + 1) mod n and prev v = (v + n - 1) mod n in
  let send ctx ~to_ m =
    Network.send_walk ~label:"hs" ctx ~walk:[| Network.self ctx; to_ |] m
  in
  let launch_probes ctx v st =
    st.pending_replies <- 2;
    let ttl = 1 lsl st.phase in
    if st.phase > !max_phase then max_phase := st.phase;
    send ctx ~to_:(next v) (Probe { id = v; phase = st.phase; ttl; clockwise = true });
    send ctx ~to_:(prev v) (Probe { id = v; phase = st.phase; ttl; clockwise = false })
  in
  let handlers v =
    {
      Network.on_start =
        (fun ctx ->
          let st = states.(v) in
          launch_probes ctx v st);
      on_message =
        (fun ctx ~via:_ m ->
          let st = states.(v) in
          match m with
          | Probe { id; phase; ttl; clockwise } ->
              if id = v then begin
                (* the probe circled the ring: v wins *)
                if not st.is_leader then begin
                  st.is_leader <- true;
                  st.known_leader <- Some v;
                  send ctx ~to_:(next v) (Winner { id = v; ttl = n - 1 })
                end
              end
              else if prio.(id) > prio.(v) then begin
                st.beaten <- true;
                if ttl > 1 then
                  send ctx
                    ~to_:(if clockwise then next v else prev v)
                    (Probe { id; phase; ttl = ttl - 1; clockwise })
                else
                  (* turn around: travel back opposite to the probe *)
                  send ctx
                    ~to_:(if clockwise then prev v else next v)
                    (Reply { id; phase; clockwise = not clockwise })
              end
              (* id < v: swallow the probe *)
          | Reply { id; phase; clockwise } ->
              if id = v then begin
                if phase = st.phase && not st.beaten then begin
                  st.pending_replies <- st.pending_replies - 1;
                  if st.pending_replies = 0 then begin
                    st.phase <- st.phase + 1;
                    launch_probes ctx v st
                  end
                end
              end
              else
                send ctx
                  ~to_:(if clockwise then next v else prev v)
                  (Reply { id; phase; clockwise })
          | Winner { id; ttl } ->
              st.known_leader <- Some id;
              if ttl > 1 then
                send ctx ~to_:(next v) (Winner { id; ttl = ttl - 1 }));
      on_link_change = (fun _ ~peer:_ ~up:_ -> ());
    }
  in
  let net = Network.create ~engine ~cost ~graph ~handlers () in
  Network.start_all net;
  (match Sim.Engine.run engine with
  | Sim.Engine.Quiescent -> ()
  | _ -> assert false);
  let leader =
    match
      Array.to_list (Array.mapi (fun v st -> (v, st.is_leader)) states)
      |> List.filter (fun (_, l) -> l)
    with
    | [ (v, _) ] -> v
    | _ -> invalid_arg "run_hirschberg_sinclair: leader count is not one"
  in
  Array.iter
    (fun st -> assert (st.known_leader = Some leader))
    states;
  let m = Network.metrics net in
  {
    leader;
    syscalls = Hardware.Metrics.syscalls_labelled m "hs";
    hops = Hardware.Metrics.hops m;
    time = Sim.Engine.now engine;
    phases = !max_phase;
  }

(* -- The paper's algorithm with eager supporter notification ---------- *)

let run_notify_supporters ?cost ?rng ~graph () =
  let o = Election.run ?cost ?rng ~notify_supporters:true ~graph () in
  {
    leader = o.Election.leader;
    syscalls = o.election_syscalls + o.notify_syscalls;
    hops = o.hops;
    time = o.time;
    phases = o.captures;
  }
