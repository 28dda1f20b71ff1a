type params = { c : float; p : float }

exception Unbounded

type t = { size : int; children : t list }

let leaf = { size = 1; children = [] }
let graft a b = { size = a.size + b.size; children = b :: a.children }
let size t = t.size

let rec depth t =
  match t.children with
  | [] -> 0
  | kids -> 1 + List.fold_left (fun acc k -> max acc (depth k)) 0 kids

let root_degree t = List.length t.children

let nodes_per_depth t =
  let rec merge a b =
    match (a, b) with
    | [], rest | rest, [] -> rest
    | x :: a', y :: b' -> (x + y) :: merge a' b'
  in
  let rec counts t = 1 :: List.fold_left (fun acc k -> merge acc (counts k)) [] t.children in
  counts t

let epsilon = 1e-9

let validate { c; p } =
  if c < 0.0 || p < 0.0 then invalid_arg "Optimal_tree: negative C or P"

(* S(t) by memoised descent on (a, b) with
   value(a, b) = t - a*P - b*(C+P); equation (3).  Sums saturate at
   [cap]: S grows exponentially in t, so exact values at large
   horizons would overflow native ints, and callers only ever compare
   against a target size. *)
let s_of ?(cap = 1 lsl 60) ({ c; p } as params) t =
  validate params;
  if cap < 1 then invalid_arg "Optimal_tree.s_of: cap >= 1";
  if p = 0.0 then
    if t < -.epsilon then 0
    else if t < (2.0 *. p) +. c -. epsilon then 1
    else raise Unbounded
  else begin
    let memo = Hashtbl.create 64 in
    let rec f a b =
      match Hashtbl.find_opt memo (a, b) with
      | Some v -> v
      | None ->
          let v = t -. (float_of_int a *. p) -. (float_of_int b *. (c +. p)) in
          let result =
            if v < p -. epsilon then 0
            else if v < (2.0 *. p) +. c -. epsilon then 1
            else begin
              let sum = f (a + 1) b + f a (b + 1) in
              if sum < 0 || sum > cap then cap else sum
            end
          in
          Hashtbl.replace memo (a, b) result;
          result
    in
    f 0 0
  end

let ot ({ c; p } as params) t =
  validate params;
  if p = 0.0 then
    if t < -.epsilon then None
    else if t < (2.0 *. p) +. c -. epsilon then Some leaf
    else raise Unbounded
  else begin
    let memo = Hashtbl.create 64 in
    let rec f a b =
      match Hashtbl.find_opt memo (a, b) with
      | Some v -> v
      | None ->
          let v = t -. (float_of_int a *. p) -. (float_of_int b *. (c +. p)) in
          let result =
            if v < p -. epsilon then None
            else if v < (2.0 *. p) +. c -. epsilon then Some leaf
            else
              match (f (a + 1) b, f a (b + 1)) with
              | Some big, Some small -> Some (graft big small)
              | _ -> assert false  (* both branches stay >= P *)
          in
          Hashtbl.replace memo (a, b) result;
          result
    in
    f 0 0
  end

(* Candidate completion times iP + jC (Section 5.2).  The optimum is
   bracketed a priori: S(t) >= 2 * S(t - (C+P)) by the recursion, so S
   reaches n within (C+P) * ceil(log2 n) + 2P + C; only grid points
   below that horizon are candidates. *)
let grid_times { c; p } ~n =
  let log2_ceil n =
    let rec go k = if 1 lsl k >= n then k else go (k + 1) in
    go 0
  in
  let t_max =
    ((c +. p) *. float_of_int (log2_ceil n)) +. (2.0 *. p) +. c +. epsilon
  in
  let i_max = int_of_float (ceil (t_max /. p)) in
  let j_max = if c = 0.0 then 0 else int_of_float (ceil (t_max /. c)) in
  let values = Hashtbl.create 256 in
  for i = 0 to i_max do
    for j = 0 to j_max do
      let t = (float_of_int i *. p) +. (float_of_int j *. c) in
      if t <= t_max then Hashtbl.replace values t ()
    done
  done;
  Hashtbl.fold (fun t () acc -> t :: acc) values [] |> List.sort Float.compare

let optimal_time ({ c = _; p } as params) ~n =
  validate params;
  if n < 1 then invalid_arg "Optimal_tree.optimal_time: n >= 1";
  if n = 1 then p
  else if p = 0.0 then raise Unbounded
  else begin
    let candidates = Array.of_list (grid_times params ~n) in
    (* S is non-decreasing in t: binary search the first candidate
       that fits n nodes. *)
    let fits t = s_of ~cap:n params t >= n in
    let rec search lo hi =
      (* invariant: fits candidates.(hi), not (fits candidates.(lo)) *)
      if hi - lo <= 1 then candidates.(hi)
      else
        let mid = (lo + hi) / 2 in
        if fits candidates.(mid) then search lo mid else search mid hi
    in
    let last = Array.length candidates - 1 in
    if not (fits candidates.(last)) then
      invalid_arg "Optimal_tree.optimal_time: grid bound too small"
    else if fits candidates.(0) then candidates.(0)
    else search 0 last
  end

(* Keep [n] nodes forming a parent-closed prefix (greedy, first
   children first); dropping nodes only removes arrivals, so the
   remaining schedule can only finish earlier. *)
let prune tree n =
  if tree.size <= n then tree
  else begin
    let rec take budget kids =
      match kids with
      | [] -> ([], budget)
      | k :: rest ->
          if budget <= 0 then ([], 0)
          else begin
            let kept = shrink k budget in
            let used = match kept with None -> 0 | Some k' -> k'.size in
            let rest', remaining = take (budget - used) rest in
            ((match kept with None -> rest' | Some k' -> k' :: rest'), remaining)
          end
    and shrink t budget =
      if budget <= 0 then None
      else begin
        let kids, _ = take (budget - 1) t.children in
        Some { size = 1 + List.fold_left (fun a k -> a + k.size) 0 kids; children = kids }
      end
    in
    match shrink tree n with Some t -> t | None -> assert false
  end

let optimal_tree params ~n =
  if n < 1 then invalid_arg "Optimal_tree.optimal_tree: n >= 1";
  if n = 1 then leaf
  else
    let t = optimal_time params ~n in
    match ot params t with
    | Some tree ->
        assert (tree.size >= n);
        prune tree n
    | None -> assert false

let binomial k =
  if k < 0 then invalid_arg "Optimal_tree.binomial: k >= 0";
  let rec build k = if k = 0 then leaf else graft (build (k - 1)) (build (k - 1)) in
  build k

let fib k =
  if k < 1 then invalid_arg "Optimal_tree.fib: k >= 1";
  let rec go a b k = if k <= 2 then b else go b (a + b) (k - 1) in
  go 1 1 k

let fibonacci k =
  if k < 1 then invalid_arg "Optimal_tree.fibonacci: k >= 1";
  let rec build k =
    if k <= 2 then leaf else graft (build (k - 1)) (build (k - 2))
  in
  build k

let star n =
  if n < 1 then invalid_arg "Optimal_tree.star: n >= 1";
  { size = n; children = List.init (n - 1) (fun _ -> leaf) }

let chain n =
  if n < 1 then invalid_arg "Optimal_tree.chain: n >= 1";
  let rec build n = if n = 1 then leaf else { size = n; children = [ build (n - 1) ] } in
  build n

(* All rooted unordered trees of size n, one per isomorphism class:
   children are chosen as a non-increasing sequence of (size, index)
   pairs over the memoised shape lists, which canonicalises the
   multiset of subtrees. *)
let enumerate_shapes n =
  if n < 1 || n > 14 then
    invalid_arg "Optimal_tree.enumerate_shapes: 1 <= n <= 14";
  let memo = Hashtbl.create 16 in
  let rec shapes n =
    match Hashtbl.find_opt memo n with
    | Some l -> l
    | None ->
        let result =
          if n = 1 then [| leaf |]
          else begin
            let collected = ref [] in
            (* choose children whose (size, index) never increases *)
            let rec pick remaining bound_size bound_idx chosen =
              if remaining = 0 then
                collected :=
                  { size = n; children = chosen } :: !collected
              else
                let max_size = min remaining bound_size in
                for size = max_size downto 1 do
                  let pool = shapes size in
                  let start =
                    if size = bound_size then min bound_idx (Array.length pool - 1)
                    else Array.length pool - 1
                  in
                  for idx = start downto 0 do
                    pick (remaining - size) size idx (pool.(idx) :: chosen)
                  done
                done
            in
            pick (n - 1) (n - 1) max_int [];
            Array.of_list !collected
          end
        in
        Hashtbl.replace memo n result;
        result
  in
  Array.to_list (shapes n)

let predicted_completion ({ c; p } as params) tree =
  validate params;
  let rec completion node =
    match node.children with
    | [] -> p
    | kids ->
        let arrivals = List.map (fun k -> completion k +. c) kids in
        let sorted = List.sort Float.compare arrivals in
        (* the node's own trigger occupies [0, P]; then one P per
           arriving message, FIFO *)
        List.fold_left (fun busy a -> Float.max busy a +. p) p sorted
  in
  completion tree

let to_netgraph_tree tree =
  let parents = ref [] in
  let next = ref 1 in
  let queue = Queue.create () in
  Queue.add (0, tree) queue;
  while not (Queue.is_empty queue) do
    let id, node = Queue.pop queue in
    List.iter
      (fun child ->
        let cid = !next in
        incr next;
        parents := (cid, id) :: !parents;
        Queue.add (cid, child) queue)
      node.children
  done;
  Netgraph.Tree.of_parents ~root:0 ~parents:!parents
