module Graph = Netgraph.Graph
module Tree = Netgraph.Tree

(* Min-heap of candidate OUT nodes with lazy deletion: members moved
   to IN stay in the heap until they surface at the top and are
   skimmed against the table (the source of truth).  Each member is
   pushed once, when it joins as an OUT node, so the deterministic-pick
   fast path costs amortised O(log S) per tour instead of a Θ(|OUT|)
   fold. *)
type heap = { mutable a : int array; mutable len : int }

let heap_create () = { a = Array.make 8 0; len = 0 }

let heap_push h x =
  if h.len = Array.length h.a then begin
    let bigger = Array.make (2 * h.len) 0 in
    Array.blit h.a 0 bigger 0 h.len;
    h.a <- bigger
  end;
  let a = h.a in
  let i = ref h.len in
  h.len <- h.len + 1;
  a.(!i) <- x;
  while !i > 0 && a.((!i - 1) / 2) > a.(!i) do
    let p = (!i - 1) / 2 in
    let tmp = a.(p) in
    a.(p) <- a.(!i);
    a.(!i) <- tmp;
    i := p
  done

let heap_pop h =
  h.len <- h.len - 1;
  let a = h.a in
  a.(0) <- a.(h.len);
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < h.len && a.(l) < a.(!smallest) then smallest := l;
    if r < h.len && a.(r) < a.(!smallest) then smallest := r;
    if !smallest = !i then continue := false
    else begin
      let tmp = a.(!smallest) in
      a.(!smallest) <- a.(!i);
      a.(!i) <- tmp;
      i := !smallest
    end
  done

(* A domain is one open-addressing int table over its members (IN and
   OUT alike): [keys] holds the member ids, [vals] the packed
   [(parent + 1) lsl 1 lor in_bit] of the same slot (parent -1 for the
   origin).  Lookups hash the id (Fibonacci hashing: the top [bits] of
   a multiply) and probe linearly; no member ever leaves, so there are
   no tombstones, and the load stays at most 1/2. *)
type t = {
  origin : int;
  mutable keys : int array;  (* [free] in empty slots; power-of-two length *)
  mutable vals : int array;
  mutable bits : int;  (* log2 (Array.length keys) *)
  mutable n_in : int;
  mutable n_out : int;
  out_heap : heap;  (* superset of the OUT members, lazily skimmed *)
}

let free = -1
let golden = 0x1E3779B97F4A7C15

let home t k = (k * golden) lsr (Sys.int_size - t.bits)

(* The slot holding [k], or -1. *)
let find t k =
  let keys = t.keys in
  let mask = Array.length keys - 1 in
  let i = ref (home t k) in
  while keys.(!i) <> k && keys.(!i) <> free do
    i := (!i + 1) land mask
  done;
  if keys.(!i) = k then !i else -1

(* Store an absent [k]; the caller has reserved room. *)
let insert t k v =
  let keys = t.keys in
  let mask = Array.length keys - 1 in
  let i = ref (home t k) in
  while keys.(!i) <> free do
    i := (!i + 1) land mask
  done;
  keys.(!i) <- k;
  t.vals.(!i) <- v

(* Grow so that [extra] more members keep the load at most 1/2. *)
let reserve t extra =
  let need = 2 * (t.n_in + t.n_out + extra) in
  if need > Array.length t.keys then begin
    let keys = t.keys and vals = t.vals in
    let bits = ref t.bits in
    while 1 lsl !bits < need do
      incr bits
    done;
    t.bits <- !bits;
    t.keys <- Array.make (1 lsl !bits) free;
    t.vals <- Array.make (1 lsl !bits) 0;
    Array.iteri (fun i k -> if k <> free then insert t k vals.(i)) keys
  end

let pack ~parent ~is_in = ((parent + 1) lsl 1) lor if is_in then 1 else 0
let parent_of_val x = (x lsr 1) - 1

(* Parent of member [v]; -1 for the origin. *)
let parent t v = parent_of_val t.vals.(find t v)

let origin t = t.origin
let mem t v = find t v >= 0

let mem_in t v =
  let s = find t v in
  s >= 0 && t.vals.(s) land 1 = 1

let mem_out t v =
  let s = find t v in
  s >= 0 && t.vals.(s) land 1 = 0

let sorted_members t ~in_bit =
  let acc = ref [] in
  Array.iteri
    (fun i k -> if k <> free && t.vals.(i) land 1 = in_bit then acc := k :: !acc)
    t.keys;
  List.sort Int.compare !acc

let in_nodes t = sorted_members t ~in_bit:1
let out_nodes t = sorted_members t ~in_bit:0
let size t = t.n_in
let out_size t = t.n_out

let out_min t =
  let h = t.out_heap in
  while h.len > 0 && not (mem_out t h.a.(0)) do
    heap_pop h
  done;
  if h.len = 0 then None else Some h.a.(0)

let singleton ~graph v =
  let degree = Graph.degree graph v in
  let bits = ref 3 in
  while 1 lsl !bits < 2 * (degree + 1) do
    incr bits
  done;
  let t =
    {
      origin = v;
      keys = Array.make (1 lsl !bits) free;
      vals = Array.make (1 lsl !bits) 0;
      bits = !bits;
      n_in = 1;
      n_out = degree;
      out_heap = heap_create ();
    }
  in
  insert t v (pack ~parent:(-1) ~is_in:true);
  Graph.iter_neighbors
    (fun peer ->
      insert t peer (pack ~parent:v ~is_in:false);
      heap_push t.out_heap peer)
    graph v;
  t

let depth t v =
  let p = ref (parent t v) and d = ref 0 in
  while !p >= 0 do
    p := parent t !p;
    incr d
  done;
  !d

(* The unique tree walk between two recorded nodes, by climbing the
   parent table directly: no Tree is materialised and the only
   allocation is the exact-size result array.  Both endpoints climb to
   their LCA — first levelled to equal depth, then in lockstep — and
   the two half-paths are written into the array from its ends. *)
let route_array t ~src ~dst =
  if not (mem t src) then
    invalid_arg (Printf.sprintf "Inout.route: %d is not recorded" src);
  if not (mem t dst) then
    invalid_arg (Printf.sprintf "Inout.route: %d is not recorded" dst);
  let dsrc = depth t src and ddst = depth t dst in
  let u = ref src and v = ref dst in
  for _ = 1 to dsrc - ddst do
    u := parent t !u
  done;
  for _ = 1 to ddst - dsrc do
    v := parent t !v
  done;
  let dlca = ref (min dsrc ddst) in
  while !u <> !v do
    u := parent t !u;
    v := parent t !v;
    decr dlca
  done;
  let up_len = dsrc - !dlca in
  let len = up_len + (ddst - !dlca) + 1 in
  let arr = Array.make len 0 in
  let u = ref src in
  for i = 0 to up_len - 1 do
    arr.(i) <- !u;
    u := parent t !u
  done;
  arr.(up_len) <- !u;
  let v = ref dst in
  for i = len - 1 downto up_len + 1 do
    arr.(i) <- !v;
    v := parent t !v
  done;
  arr

(* Record victim member [v] in the winner with [parent] (used only if
   [v] is new): IN beats OUT, and a new OUT member joins the heap. *)
let absorb winner v ~parent ~is_in =
  let s = find winner v in
  if s < 0 then begin
    insert winner v (pack ~parent ~is_in);
    if is_in then winner.n_in <- winner.n_in + 1
    else begin
      winner.n_out <- winner.n_out + 1;
      heap_push winner.out_heap v
    end
  end
  else if is_in && winner.vals.(s) land 1 = 0 then begin
    winner.vals.(s) <- winner.vals.(s) lor 1;
    winner.n_in <- winner.n_in + 1;
    winner.n_out <- winner.n_out - 1
  end

(* In-place capture: graft the victim, re-rooted at [entry], into the
   winner.  The re-rooting is the entry→origin path with its edges
   reversed, so that path is absorbed first with the reversed parents;
   every other victim member keeps its own parent.  A member the winner
   already records keeps the winner's parent, so the absorbed chains
   end at [entry].  Only the victim's slots are visited — Θ(victim)
   per capture — and the victim's arrays are only read (frozen
   election structures alias them). *)
let merge_into ~winner ~victim ~entry =
  if not (mem_out winner entry) then
    invalid_arg "Inout.merge_into: entry is not an OUT node of the winner";
  if not (mem_in victim entry) then
    invalid_arg "Inout.merge_into: entry is not an IN node of the victim";
  reserve winner (victim.n_in + victim.n_out);
  let child = ref entry and v = ref (parent victim entry) in
  while !v >= 0 do
    absorb winner !v ~parent:!child ~is_in:(mem_in victim !v);
    child := !v;
    v := parent victim !v
  done;
  let vals = victim.vals in
  Array.iteri
    (fun i k ->
      if k <> free then
        absorb winner k ~parent:(parent_of_val vals.(i))
          ~is_in:(vals.(i) land 1 = 1))
    victim.keys

let parent_pairs t =
  let acc = ref [] in
  Array.iteri
    (fun i k ->
      let p = parent_of_val t.vals.(i) in
      if k <> free && p >= 0 then acc := (k, p) :: !acc)
    t.keys;
  !acc

let spanning_tree t = Tree.of_parents ~root:t.origin ~parents:(parent_pairs t)

(* The Euler tour of the spanning tree, built from the table: children
   are bucketed by parent slot in ascending id order (a CSR over
   slots), then an explicit-stack DFS emits each node on entry (first
   visit, flag 1) and each parent again on return (flag 0).  The last
   first visit is the end of the rightmost root-to-leaf chain, so the
   cut length 2m - 1 - depth is known before the walk starts. *)
let tour t =
  let keys = t.keys in
  let cap = Array.length keys in
  let m = t.n_in + t.n_out in
  let sorted = Array.make m 0 in
  let j = ref 0 in
  Array.iter
    (fun k ->
      if k <> free then begin
        sorted.(!j) <- k;
        incr j
      end)
    keys;
  Array.sort Int.compare sorted;
  let parent_slot v =
    let p = parent t v in
    if p < 0 then -1 else find t p
  in
  let start = Array.make (cap + 1) 0 in
  Array.iter
    (fun v ->
      let ps = parent_slot v in
      if ps >= 0 then start.(ps + 1) <- start.(ps + 1) + 1)
    sorted;
  for s = 0 to cap - 1 do
    start.(s + 1) <- start.(s + 1) + start.(s)
  done;
  let cursor = Array.sub start 0 cap in
  let kids = Array.make (max 0 (m - 1)) 0 in
  Array.iter
    (fun v ->
      let ps = parent_slot v in
      if ps >= 0 then begin
        kids.(cursor.(ps)) <- find t v;
        cursor.(ps) <- cursor.(ps) + 1
      end)
    sorted;
  let root = find t t.origin in
  let last = ref root and depth = ref 0 in
  while start.(!last + 1) > start.(!last) do
    last := kids.(start.(!last + 1) - 1);
    incr depth
  done;
  let len = (2 * m) - 1 - !depth in
  let walk = Array.make len 0 in
  Array.blit start 0 cursor 0 cap;
  let stack = Array.make m 0 in
  let sp = ref 1 in
  stack.(0) <- root;
  walk.(0) <- (t.origin lsl 1) lor 1;
  for i = 1 to len - 1 do
    let s = stack.(!sp - 1) in
    if cursor.(s) < start.(s + 1) then begin
      let c = kids.(cursor.(s)) in
      cursor.(s) <- cursor.(s) + 1;
      stack.(!sp) <- c;
      incr sp;
      walk.(i) <- (keys.(c) lsl 1) lor 1
    end
    else begin
      decr sp;
      walk.(i) <- keys.(stack.(!sp - 1)) lsl 1
    end
  done;
  walk

let is_valid ~graph t =
  let members = t.n_in + t.n_out in
  let counted_in = List.length (in_nodes t)
  and counted_out = List.length (out_nodes t) in
  let origin_in = mem_in t t.origin && parent t t.origin = -1 in
  let edges_physical =
    List.for_all (fun (v, p) -> Graph.has_edge graph v p) (parent_pairs t)
  in
  let tree_ok =
    match spanning_tree t with
    | tree -> Tree.size tree = members
    | exception Invalid_argument _ -> false
  in
  let out_frontier =
    List.for_all
      (fun v ->
        Graph.fold_neighbors (fun u found -> found || mem_in t u) graph v false)
      (out_nodes t)
  in
  counted_in = t.n_in && counted_out = t.n_out && origin_in && edges_physical
  && tree_ok && out_frontier
