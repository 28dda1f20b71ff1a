module Graph = Netgraph.Graph
module Tree = Netgraph.Tree
module Anr = Hardware.Anr

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
   origin), and [links] the member's two tree links packed as
   [(down lsl 31) lor up]: [down] the local link index at its parent
   toward it, [up] the index at it toward its parent (0 and 0 at the
   origin).  A node of degree d needs ceil(log2 (d + 1)) bits per
   index, so three ids in [vals] would overflow 63 bits on a star past
   2^21 nodes; the separate int holds any index below 2^31, and
   [singleton] refuses a larger one.  Lookups hash the id (Fibonacci
   hashing: the top [bits] of a multiply) and probe linearly; no member
   ever leaves, so there are no tombstones, and the load stays at most
   1/2. *)
type t = {
  origin : int;
  mutable keys : int array;  (* [free] in empty slots; power-of-two length *)
  mutable vals : int array;
  mutable links : int array;
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
let insert t k v l =
  let keys = t.keys in
  let mask = Array.length keys - 1 in
  let i = ref (home t k) in
  while keys.(!i) <> free do
    i := (!i + 1) land mask
  done;
  keys.(!i) <- k;
  t.vals.(!i) <- v;
  t.links.(!i) <- l

(* Grow so that [extra] more members keep the load at most 1/2. *)
let reserve t extra =
  let need = 2 * (t.n_in + t.n_out + extra) in
  if need > Array.length t.keys then begin
    let keys = t.keys and vals = t.vals and links = t.links in
    let bits = ref t.bits in
    while 1 lsl !bits < need do
      incr bits
    done;
    t.bits <- !bits;
    t.keys <- Array.make (1 lsl !bits) free;
    t.vals <- Array.make (1 lsl !bits) 0;
    t.links <- Array.make (1 lsl !bits) 0;
    Array.iteri (fun i k -> if k <> free then insert t k vals.(i) links.(i)) keys
  end

let pack ~parent ~is_in = ((parent + 1) lsl 1) lor if is_in then 1 else 0
let parent_of_val x = (x lsr 1) - 1

let link_bits = 31
let pack_links ~down ~up = (down lsl link_bits) lor up
let down_of l = l lsr link_bits
let up_of l = l land ((1 lsl link_bits) - 1)

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
      links = Array.make (1 lsl !bits) 0;
      bits = !bits;
      n_in = 1;
      n_out = degree;
      out_heap = heap_create ();
    }
  in
  insert t v (pack ~parent:(-1) ~is_in:true) 0;
  for down = 1 to degree do
    let peer = Graph.peer_via graph v down in
    let up = Graph.link_index graph peer v in
    if (down lor up) lsr link_bits <> 0 then
      invalid_arg "Inout.singleton: a link index needs more than 31 bits";
    insert t peer (pack ~parent:v ~is_in:false) (pack_links ~down ~up);
    heap_push t.out_heap peer
  done;
  t

(* The tree route between the origin and member [v] as packed ANR
   elements ending in the NCU element: [~home] climbs [v]'s up links in
   walk order (member to origin), otherwise the ancestors' down links
   are written from the far end (origin to member).  One climb counts
   the depth, a second writes the links: no walk and no CSR search.
   [[||]] for the origin itself, as [Anr.of_walk] gives a one-node
   walk. *)
let route t v ~home =
  let s = find t v in
  if s < 0 then
    invalid_arg (Printf.sprintf "Inout.route: %d is not recorded" v);
  let depth = ref 0 and p = ref (parent_of_val t.vals.(s)) in
  while !p >= 0 do
    p := parent t !p;
    incr depth
  done;
  let d = !depth in
  if d = 0 then [||]
  else begin
    let codes = Array.make (d + 1) 0 in
    let s = ref s in
    for i = 0 to d - 1 do
      let l = t.links.(!s) in
      if home then codes.(i) <- Anr.code ~link:(up_of l) ~copy:false
      else codes.(d - 1 - i) <- Anr.code ~link:(down_of l) ~copy:false;
      s := find t (parent_of_val t.vals.(!s))
    done;
    codes
  end

let route_to t v = route t v ~home:false
let route_home t v = route t v ~home:true

(* Record victim member [v] in the winner with [parent] and its link
   pair (used only if [v] is new): IN beats OUT, and a new OUT member
   joins the heap. *)
let absorb winner v ~parent ~links ~is_in =
  let s = find winner v in
  if s < 0 then begin
    insert winner v (pack ~parent ~is_in) links;
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
   reversed, so that path is absorbed first with the reversed parents
   and each node takes its old child's link pair swapped; every other
   victim member keeps its own parent and links.  A member the winner
   already records keeps the winner's, so the absorbed chains end at
   [entry].  Only the victim's slots are visited — Θ(victim) per
   capture, with no link search — and the victim's arrays are only
   read (frozen election structures alias them). *)
let merge_into ~winner ~victim ~entry =
  if not (mem_out winner entry) then
    invalid_arg "Inout.merge_into: entry is not an OUT node of the winner";
  if not (mem_in victim entry) then
    invalid_arg "Inout.merge_into: entry is not an IN node of the victim";
  reserve winner (victim.n_in + victim.n_out);
  let vals = victim.vals and links = victim.links in
  let child = ref (find victim entry) in
  let v = ref (parent_of_val vals.(!child)) in
  while !v >= 0 do
    let s = find victim !v in
    (* the edge to the old child, turned around *)
    let l = links.(!child) in
    absorb winner !v ~parent:victim.keys.(!child)
      ~links:(pack_links ~down:(up_of l) ~up:(down_of l))
      ~is_in:(vals.(s) land 1 = 1);
    child := s;
    v := parent_of_val vals.(s)
  done;
  Array.iteri
    (fun i k ->
      if k <> free then
        absorb winner k ~parent:(parent_of_val vals.(i)) ~links:links.(i)
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

(* The announcement route: the Euler tour of the spanning tree from the
   origin, cut after its last first visit, compiled as it is walked.
   An explicit-stack DFS scans each node's CSR row in ascending link
   order — ascending neighbour id — for members whose parent it is:
   a descent leaves through the child's link index and copies at the
   node it leaves if that was a first visit; a return leaves through
   the node's up link.  The NCU element closes the route at the
   [m]-th first visit, whose length [2m - 1 - depth] is at most the
   [2m - 1] the buffer holds. *)
let tour ~graph t =
  let m = t.n_in + t.n_out in
  if m = 1 then [||]
  else begin
    let codes = Array.make ((2 * m) - 1) 0 in
    let stack = Array.make m 0 and next = Array.make m 1 in
    stack.(0) <- find t t.origin;
    let sp = ref 1 and len = ref 0 and seen = ref 1 and copy = ref false in
    while !seen < m do
      let s = stack.(!sp - 1) in
      let u = t.keys.(s) in
      let degree = Graph.degree graph u in
      let i = ref next.(!sp - 1) and child = ref (-1) in
      while !child < 0 && !i <= degree do
        let c = find t (Graph.peer_via graph u !i) in
        if c >= 0 && parent_of_val t.vals.(c) = u then child := c;
        incr i
      done;
      next.(!sp - 1) <- !i;
      if !child >= 0 then begin
        codes.(!len) <- Anr.code ~link:(!i - 1) ~copy:!copy;
        stack.(!sp) <- !child;
        next.(!sp) <- 1;
        incr sp;
        incr seen;
        copy := true
      end
      else begin
        codes.(!len) <- Anr.code ~link:(up_of t.links.(s)) ~copy:!copy;
        decr sp;
        copy := false
      end;
      incr len
    done;
    Array.sub codes 0 (!len + 1)
  end

let is_valid ~graph t =
  let members = t.n_in + t.n_out in
  let counted_in = List.length (in_nodes t)
  and counted_out = List.length (out_nodes t) in
  let origin_in = mem_in t t.origin && parent t t.origin = -1 in
  let edge_physical (v, p) =
    Graph.has_edge graph v p
    &&
    let l = t.links.(find t v) in
    down_of l = Graph.link_index graph p v
    && up_of l = Graph.link_index graph v p
  in
  let edges_physical = List.for_all edge_physical (parent_pairs t) in
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
