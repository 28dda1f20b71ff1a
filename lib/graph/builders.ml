let path n =
  if n < 1 then invalid_arg "Builders.path: n >= 1 required";
  Graph.of_edges ~n (List.init (max 0 (n - 1)) (fun i -> (i, i + 1)))

let ring n =
  if n < 3 then invalid_arg "Builders.ring: n >= 3 required";
  Graph.of_edges ~n (List.init n (fun i -> (i, (i + 1) mod n)))

let star n =
  if n < 1 then invalid_arg "Builders.star: n >= 1 required";
  Graph.of_edges ~n (List.init (max 0 (n - 1)) (fun i -> (0, i + 1)))

let complete n =
  if n < 1 then invalid_arg "Builders.complete: n >= 1 required";
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      edges := (u, v) :: !edges
    done
  done;
  Graph.of_edges ~n !edges

let grid ~rows ~cols =
  if rows < 1 || cols < 1 then invalid_arg "Builders.grid: empty grid";
  let id r c = (r * cols) + c in
  let edges = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then edges := (id r c, id r (c + 1)) :: !edges;
      if r + 1 < rows then edges := (id r c, id (r + 1) c) :: !edges
    done
  done;
  Graph.of_edges ~n:(rows * cols) !edges

let torus ~rows ~cols =
  if rows < 3 || cols < 3 then
    invalid_arg "Builders.torus: rows, cols >= 3 required";
  let id r c = (r * cols) + c in
  let edges = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      edges := (id r c, id r ((c + 1) mod cols)) :: !edges;
      edges := (id r c, id ((r + 1) mod rows) c) :: !edges
    done
  done;
  Graph.of_edges ~n:(rows * cols) !edges

let hypercube d =
  if d < 0 || d > 20 then invalid_arg "Builders.hypercube: 0 <= d <= 20";
  let n = 1 lsl d in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for bit = 0 to d - 1 do
      let v = u lxor (1 lsl bit) in
      if u < v then edges := (u, v) :: !edges
    done
  done;
  Graph.of_edges ~n !edges

let binary_tree_nodes ~depth = (1 lsl (depth + 1)) - 1

let complete_binary_tree ~depth =
  if depth < 0 then invalid_arg "Builders.complete_binary_tree: depth >= 0";
  let n = binary_tree_nodes ~depth in
  let edges = ref [] in
  for v = 1 to n - 1 do
    edges := (v, (v - 1) / 2) :: !edges
  done;
  Graph.of_edges ~n !edges

let complete_kary_tree ~arity ~depth =
  if arity < 1 then invalid_arg "Builders.complete_kary_tree: arity >= 1";
  if depth < 0 then invalid_arg "Builders.complete_kary_tree: depth >= 0";
  let rec count d = if d = 0 then 1 else 1 + (arity * count (d - 1)) in
  let n = count depth in
  let edges = ref [] in
  for v = 1 to n - 1 do
    edges := (v, (v - 1) / arity) :: !edges
  done;
  Graph.of_edges ~n !edges

let caterpillar ~spine ~legs =
  if spine < 1 then invalid_arg "Builders.caterpillar: spine >= 1";
  if legs < 0 then invalid_arg "Builders.caterpillar: legs >= 0";
  let n = spine + (spine * legs) in
  let edges = ref [] in
  for i = 0 to spine - 2 do
    edges := (i, i + 1) :: !edges
  done;
  for i = 0 to spine - 1 do
    for j = 0 to legs - 1 do
      edges := (i, spine + (i * legs) + j) :: !edges
    done
  done;
  Graph.of_edges ~n !edges

let random_gnp rng ~n ~p =
  if n < 1 then invalid_arg "Builders.random_gnp: n >= 1";
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Sim.Rng.chance rng p then edges := (u, v) :: !edges
    done
  done;
  Graph.of_edges ~n !edges

let random_tree rng ~n =
  if n < 1 then invalid_arg "Builders.random_tree: n >= 1";
  let edges = ref [] in
  for v = 1 to n - 1 do
    edges := (v, Sim.Rng.int rng v) :: !edges
  done;
  Graph.of_edges ~n !edges

let random_connected rng ~n ~extra_edges =
  if n < 1 then invalid_arg "Builders.random_connected: n >= 1";
  let edges = ref [] in
  for v = 1 to n - 1 do
    edges := (v, Sim.Rng.int rng v) :: !edges
  done;
  (* Extra edges by rejection sampling; cap attempts so dense requests
     on tiny graphs terminate.  Dedup through an open-addressing set of
     normalised edge codes [min * n + max] (linear probing, -1 empty):
     the same accept/reject decisions, hence the same rng stream and
     the same graph, as scanning the edge list, at O(1) a probe.  It
     holds at most every pair once, and stays at most half full. *)
  let most = min (n - 1 + max 0 extra_edges) (n * (n - 1) / 2) in
  let bits =
    let b = ref 4 in
    while 1 lsl !b < 2 * most do
      incr b
    done;
    !b
  in
  let mask = (1 lsl bits) - 1 in
  let slots = Array.make (mask + 1) (-1) in
  (* Fibonacci hashing: the top [bits] bits of the code times 2^62/phi *)
  let home c = (c * 0x278D_DE6E_5FD2_9F05) lsr (63 - bits) in
  (* adds [c]; true when it was absent *)
  let add c =
    let i = ref (home c) in
    while slots.(!i) >= 0 && slots.(!i) <> c do
      i := (!i + 1) land mask
    done;
    if slots.(!i) = c then false
    else begin
      slots.(!i) <- c;
      true
    end
  in
  let code u v = if u < v then (u * n) + v else (v * n) + u in
  List.iter (fun (u, v) -> ignore (add (code u v) : bool)) !edges;
  let added = ref 0 in
  let attempts = ref 0 in
  while !added < extra_edges && !attempts < 100 * (extra_edges + 1) do
    incr attempts;
    let u = Sim.Rng.int rng n and v = Sim.Rng.int rng n in
    if u <> v && add (code u v) then begin
      edges := (u, v) :: !edges;
      incr added
    end
  done;
  Graph.of_edges ~n !edges
