(* A fixed-size pool of resident domains.

   Shape: [create ~jobs] spawns [jobs - 1] helper domains that park on
   a condition variable; each [run]/[map] publishes one "generation" of
   work, wakes every helper, and the calling domain participates as
   worker 0 — so [jobs = 1] degenerates to a plain inline loop with no
   domain, no lock traffic, and byte-identical behaviour.

   Scheduling inside a generation is a single shared self-scheduling
   queue: one atomic cursor over the task array, every worker (caller
   included) repeatedly claiming the next index.  Compared with
   per-worker chase-lev deques this costs one contended fetch-and-add
   per item, which is noise next to the millisecond-scale simulation
   replicas this pool exists for, and it load-balances perfectly for
   free.  Determinism never depends on the schedule: results land in
   their submission slot, and any replica randomness must come from a
   pre-split Rng (see Rng.split_n), never from worker identity. *)

type task = int -> unit

(* Per-worker telemetry.  Each worker writes only its own slot while a
   generation is in flight; the submitter reads after the drain
   barrier (the mutex-protected [running = 0] handshake), so every
   read is ordered after the writes it observes.  Wall-clock spans are
   telemetry only — they never feed back into scheduling or results,
   so determinism is untouched. *)
type wstat = {
  mutable w_tasks : int;  (* map items executed *)
  mutable w_chunks : int;  (* cursor claims that yielded work *)
  mutable w_busy : float;  (* seconds inside submitted tasks *)
  mutable w_idle : float;  (* seconds of a generation spent not busy *)
}

type worker_stats = {
  tasks : int;
  chunks : int;
  busy_s : float;
  idle_s : float;
}

type t = {
  jobs : int;
  mutex : Mutex.t;
  work : Condition.t;  (* helpers park here between generations *)
  idle : Condition.t;  (* the submitter parks here until helpers drain *)
  mutable generation : int;
  mutable current : task option;
  mutable running : int;  (* helpers still inside the current generation *)
  mutable closed : bool;
  mutable busy : bool;  (* a run is in flight (re-entrancy guard) *)
  mutable helpers : unit Domain.t array;
  stats : wstat array;  (* one slot per worker *)
  gen_busy : float array;  (* this generation's busy span per worker *)
  mutable generations_done : int;
}

let default_jobs () = Domain.recommended_domain_count ()

let helper_loop t worker =
  let seen = ref 0 in
  let rec loop () =
    Mutex.lock t.mutex;
    while (not t.closed) && t.generation = !seen do
      Condition.wait t.work t.mutex
    done;
    if t.closed then Mutex.unlock t.mutex
    else begin
      seen := t.generation;
      let task = match t.current with Some f -> f | None -> assert false in
      Mutex.unlock t.mutex;
      let t0 = Unix.gettimeofday () in
      (* [map] wraps per-item exceptions into its result slots; this
         catch-all only shields the pool from a raising [run] task *)
      (try task worker with _ -> ());
      let span = Unix.gettimeofday () -. t0 in
      let s = t.stats.(worker) in
      s.w_busy <- s.w_busy +. span;
      t.gen_busy.(worker) <- span;
      Mutex.lock t.mutex;
      t.running <- t.running - 1;
      if t.running = 0 then Condition.broadcast t.idle;
      Mutex.unlock t.mutex;
      loop ()
    end
  in
  loop ()

let create ~jobs =
  let jobs = max 1 jobs in
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      work = Condition.create ();
      idle = Condition.create ();
      generation = 0;
      current = None;
      running = 0;
      closed = false;
      busy = false;
      helpers = [||];
      stats =
        Array.init jobs (fun _ ->
            { w_tasks = 0; w_chunks = 0; w_busy = 0.0; w_idle = 0.0 });
      gen_busy = Array.make jobs 0.0;
      generations_done = 0;
    }
  in
  (* helpers must close over the very record we return, so the array is
     assigned after construction (workers 1..jobs-1; the caller is 0) *)
  if jobs > 1 then
    t.helpers <-
      Array.init (jobs - 1) (fun i ->
          Domain.spawn (fun () -> helper_loop t (i + 1)));
  t

let jobs t = t.jobs

let run t task =
  if t.closed then invalid_arg "Pool.run: pool is closed";
  if t.jobs = 1 then begin
    let t0 = Unix.gettimeofday () in
    let caller_exn = (try task 0; None with e -> Some e) in
    let s = t.stats.(0) in
    s.w_busy <- s.w_busy +. (Unix.gettimeofday () -. t0);
    t.generations_done <- t.generations_done + 1;
    match caller_exn with Some e -> raise e | None -> ()
  end
  else begin
    Mutex.lock t.mutex;
    if t.busy then begin
      Mutex.unlock t.mutex;
      invalid_arg "Pool.run: re-entrant use of a busy pool"
    end;
    t.busy <- true;
    t.current <- Some task;
    t.running <- Array.length t.helpers;
    t.generation <- t.generation + 1;
    Condition.broadcast t.work;
    Mutex.unlock t.mutex;
    let t0 = Unix.gettimeofday () in
    let caller_exn = (try task 0; None with e -> Some e) in
    let caller_span = Unix.gettimeofday () -. t0 in
    let s0 = t.stats.(0) in
    s0.w_busy <- s0.w_busy +. caller_span;
    t.gen_busy.(0) <- caller_span;
    Mutex.lock t.mutex;
    while t.running > 0 do
      Condition.wait t.idle t.mutex
    done;
    t.current <- None;
    t.busy <- false;
    t.generations_done <- t.generations_done + 1;
    Mutex.unlock t.mutex;
    (* idle = the stretch of this generation a worker spent waiting
       for stragglers; computed after the drain barrier, when every
       helper has written its busy span *)
    let wall = Unix.gettimeofday () -. t0 in
    for w = 0 to t.jobs - 1 do
      let s = t.stats.(w) in
      s.w_idle <- s.w_idle +. Float.max 0.0 (wall -. t.gen_busy.(w))
    done;
    match caller_exn with Some e -> raise e | None -> ()
  end

let map ?chunk t f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let chunk =
      match chunk with
      | Some c ->
          if c < 1 then invalid_arg "Pool.map: chunk must be positive" else c
      | None ->
          (* batch enough per cursor fetch that tiny tasks are not
             dominated by the contended fetch-and-add, while keeping
             ~4 batches per worker for load balance *)
          max 1 (n / (t.jobs * 4))
    in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let body worker =
      let s = t.stats.(worker) in
      let rec drain () =
        let i0 = Atomic.fetch_and_add next chunk in
        if i0 < n then begin
          let stop = min n (i0 + chunk) in
          s.w_chunks <- s.w_chunks + 1;
          s.w_tasks <- s.w_tasks + (stop - i0);
          (* distinct workers write distinct slots: no data race *)
          for i = i0 to stop - 1 do
            results.(i) <- Some (try Ok (f xs.(i)) with e -> Error e)
          done;
          drain ()
        end
      in
      drain ()
    in
    run t body;
    (* traversal is index order, so the lowest-index failure wins
       deterministically regardless of which worker hit it *)
    Array.map
      (function
        | Some (Ok y) -> y
        | Some (Error e) -> raise e
        | None -> assert false)
      results
  end

let map_list ?chunk t f xs = Array.to_list (map ?chunk t f (Array.of_list xs))

(* -- Telemetry --------------------------------------------------------- *)

let stats t =
  Array.map
    (fun s ->
      {
        tasks = s.w_tasks;
        chunks = s.w_chunks;
        busy_s = s.w_busy;
        idle_s = s.w_idle;
      })
    t.stats

let generations t = t.generations_done

let span_buckets = [| 0.0001; 0.001; 0.01; 0.1; 1.0; 10.0; 100.0 |]

(* Totals go to counters and per-worker spans to histograms, so
   registries published from several pools merge order-independently
   (Registry.merge: counters sum, histogram bins add, gauges keep the
   max) exactly like the per-replica registries of DESIGN.md §10. *)
let publish t r =
  if Hardware.Registry.enabled r then begin
    let module R = Hardware.Registry in
    let total f = Array.fold_left (fun acc s -> acc + f s) 0 t.stats in
    R.add
      (R.counter r "pool.tasks" ~help:"map items executed by this pool")
      (total (fun s -> s.w_tasks));
    R.add
      (R.counter r "pool.chunks"
         ~help:"cursor claims that yielded work (chunked self-scheduling)")
      (total (fun s -> s.w_chunks));
    R.add
      (R.counter r "pool.generations" ~help:"run/map submissions completed")
      t.generations_done;
    R.set (R.gauge r "pool.jobs" ~help:"worker count") (float_of_int t.jobs);
    let busy =
      R.histogram r "pool.worker_busy_s" ~buckets:span_buckets
        ~help:"seconds each worker spent inside submitted tasks"
    in
    let idle =
      R.histogram r "pool.worker_idle_s" ~buckets:span_buckets
        ~help:"seconds each worker spent waiting out generations"
    in
    Array.iter
      (fun s ->
        R.observe busy s.w_busy;
        R.observe idle s.w_idle)
      t.stats
  end

let shutdown t =
  if not t.closed then begin
    Mutex.lock t.mutex;
    t.closed <- true;
    Condition.broadcast t.work;
    Mutex.unlock t.mutex;
    Array.iter Domain.join t.helpers
  end

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
