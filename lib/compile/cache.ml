(* The process-wide artifact cache: one table keyed by Topology.key,
   shared by every harness in the process.  Builders are pure
   functions of their key (seeded graph construction), so a duplicate
   build under a first-touch race is wasted work, never divergence —
   the table lock is dropped while building to keep concurrent misses
   on distinct keys parallel. *)

type stats = { hits : int; misses : int; evictions : int }

let lock = Mutex.create ()
let table : (Topology.key, Topology.t) Hashtbl.t = Hashtbl.create 64
let hits = ref 0
let misses = ref 0
let evictions = ref 0

(* Far above any harness's working set (bench sizes + sweep replicas +
   chaos schedules); a soak that exceeds it flushes whole generations
   rather than tracking recency. *)
let capacity = 256

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let find_or_build key build =
  let cached =
    locked (fun () ->
        match Hashtbl.find_opt table key with
        | Some art ->
            incr hits;
            Some art
        | None ->
            incr misses;
            None)
  in
  match cached with
  | Some art -> art
  | None -> (
      let graph = build () in
      locked (fun () ->
          match Hashtbl.find_opt table key with
          | Some art -> art (* lost a first-touch race; keep the winner *)
          | None ->
              let art = Topology.create ~key graph in
              if Hashtbl.length table >= capacity then begin
                Hashtbl.reset table;
                incr evictions
              end;
              Hashtbl.replace table key art;
              art))

let stats () =
  locked (fun () ->
      { hits = !hits; misses = !misses; evictions = !evictions })

let resident () = locked (fun () -> Hashtbl.length table)

let pp_stats ppf () =
  let s = stats () in
  Format.fprintf ppf
    "compile cache: %d hits, %d misses, %d evictions (%d artifacts resident)"
    s.hits s.misses s.evictions (resident ())

let clear () =
  locked (fun () ->
      Hashtbl.reset table;
      hits := 0;
      misses := 0;
      evictions := 0)

(* -- canned families -------------------------------------------------- *)

let random_connected ~seed ~n ~extra_edges =
  find_or_build
    { Topology.family = "random-connected"; n; seed; index = 0; extra = extra_edges }
    (fun () ->
      Netgraph.Builders.random_connected (Sim.Rng.create ~seed) ~n ~extra_edges)

(* replica i of a Parallel.Sweep: graph stream = the first half of
   split child i, matching Sweep.run's own derivation — a function of
   (seed, index, n) alone, so hit or miss cannot change the replica *)
let sweep_replica ~seed ~index ~n =
  find_or_build
    { Topology.family = "sweep-replica"; n; seed; index; extra = n / 2 }
    (fun () ->
      let child = Sim.Rng.split_nth (Sim.Rng.create ~seed) index in
      let graph_rng, _run = Sim.Rng.split child in
      Netgraph.Builders.random_connected graph_rng ~n ~extra_edges:(n / 2))

let ring ~n =
  find_or_build
    { Topology.family = "ring"; n; seed = 0; index = 0; extra = 0 }
    (fun () -> Netgraph.Builders.ring n)

let path ~n =
  find_or_build
    { Topology.family = "path"; n; seed = 0; index = 0; extra = 0 }
    (fun () -> Netgraph.Builders.path n)

let star ~n =
  find_or_build
    { Topology.family = "star"; n; seed = 0; index = 0; extra = 0 }
    (fun () -> Netgraph.Builders.star n)

let complete ~n =
  find_or_build
    { Topology.family = "complete"; n; seed = 0; index = 0; extra = 0 }
    (fun () -> Netgraph.Builders.complete n)

let grid ~rows ~cols =
  find_or_build
    { Topology.family = "grid"; n = rows * cols; seed = 0; index = rows; extra = cols }
    (fun () -> Netgraph.Builders.grid ~rows ~cols)

let torus ~rows ~cols =
  find_or_build
    { Topology.family = "torus"; n = rows * cols; seed = 0; index = rows; extra = cols }
    (fun () -> Netgraph.Builders.torus ~rows ~cols)

let hypercube ~dim =
  find_or_build
    { Topology.family = "hypercube"; n = 1 lsl dim; seed = 0; index = 0; extra = dim }
    (fun () -> Netgraph.Builders.hypercube dim)

let complete_binary_tree ~depth =
  find_or_build
    {
      Topology.family = "complete-binary-tree";
      n = Netgraph.Builders.binary_tree_nodes ~depth;
      seed = 0;
      index = 0;
      extra = depth;
    }
    (fun () -> Netgraph.Builders.complete_binary_tree ~depth)
