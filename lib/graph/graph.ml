type node = int

(* Compressed sparse row (CSR): the neighbours of [u] are
   [targets.(offsets.(u)) .. targets.(offsets.(u+1) - 1)], sorted
   increasing.  Each such slot is a {e directed edge id}; [uedge]
   maps it to the id of the underlying undirected edge (shared by the
   two directions), so runtime per-link state can live in flat arrays
   instead of tuple-keyed hash tables. *)
type t = {
  size : int;
  offsets : int array;  (* length size + 1 *)
  targets : int array;  (* length 2m *)
  uedge : int array;  (* length 2m; undirected edge id in [0, m) *)
  edge_count : int;
}

(* Binary search for [v] in [u]'s CSR slice; returns the directed edge
   id, or -1 when absent.  A loop over int refs rather than a local
   recursive function, which would be a closure allocated per call. *)
let slot g u v =
  let targets = g.targets in
  let stop = g.offsets.(u + 1) in
  let lo = ref g.offsets.(u) and hi = ref stop in
  (* first slot whose target is >= v *)
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if targets.(mid) < v then lo := mid + 1 else hi := mid
  done;
  if !lo < stop && targets.(!lo) = v then !lo else -1

(* The CSR in O(n + m), by two stable counting sorts over the 2m
   directed entries: by target into [by_target] (which keeps only the
   sources), then, walking the targets in increasing order, by source
   into [raw].  Each source's slice of [raw] is then sorted by target,
   so duplicate edges sit side by side and one pass drops them.  An
   undirected edge is counted once per endpoint, so the in- and
   out-degree counts are the same [start] array. *)
let of_edges ~n edges =
  if n <= 0 then invalid_arg "Graph.of_edges: n must be positive";
  let check v =
    if v < 0 || v >= n then
      invalid_arg (Printf.sprintf "Graph.of_edges: node %d out of [0,%d)" v n)
  in
  let start = Array.make (n + 1) 0 in
  List.iter
    (fun (u, v) ->
      check u;
      check v;
      if u = v then
        invalid_arg (Printf.sprintf "Graph.of_edges: self-loop at %d" u);
      start.(u + 1) <- start.(u + 1) + 1;
      start.(v + 1) <- start.(v + 1) + 1)
    edges;
  for u = 0 to n - 1 do
    start.(u + 1) <- start.(u) + start.(u + 1)
  done;
  let entries = start.(n) in
  let next = Array.sub start 0 n in
  let by_target = Array.make entries 0 in
  List.iter
    (fun (u, v) ->
      by_target.(next.(v)) <- u;
      next.(v) <- next.(v) + 1;
      by_target.(next.(u)) <- v;
      next.(u) <- next.(u) + 1)
    edges;
  Array.blit start 0 next 0 n;
  let raw = Array.make entries 0 in
  for v = 0 to n - 1 do
    for k = start.(v) to start.(v + 1) - 1 do
      let u = by_target.(k) in
      raw.(next.(u)) <- v;
      next.(u) <- next.(u) + 1
    done
  done;
  (* drop duplicates in place: the write cursor never passes the read *)
  let offsets = Array.make (n + 1) 0 in
  let w = ref 0 in
  for u = 0 to n - 1 do
    for k = start.(u) to start.(u + 1) - 1 do
      if k = start.(u) || raw.(k) <> raw.(k - 1) then begin
        raw.(!w) <- raw.(k);
        incr w
      end
    done;
    offsets.(u + 1) <- !w
  done;
  let slots = !w in
  let targets = if slots = entries then raw else Array.sub raw 0 slots in
  (* Undirected ids in order of the smaller endpoint's slice.  [u]'s
     slots below [u] name, in increasing order, the smaller endpoints
     that reach [u] in that same order, so a cursor per node finds the
     reverse slot without a search. *)
  let uedge = Array.make slots 0 in
  let below = Array.sub offsets 0 n in
  let id = ref 0 in
  for u = 0 to n - 1 do
    for d = offsets.(u) to offsets.(u + 1) - 1 do
      let v = targets.(d) in
      if u < v then begin
        uedge.(d) <- !id;
        uedge.(below.(v)) <- !id;
        below.(v) <- below.(v) + 1;
        incr id
      end
    done
  done;
  { size = n; offsets; targets; uedge; edge_count = slots / 2 }

let n g = g.size
let m g = g.edge_count
let degree g u = g.offsets.(u + 1) - g.offsets.(u)

let neighbors g u =
  let acc = ref [] in
  for d = g.offsets.(u + 1) - 1 downto g.offsets.(u) do
    acc := g.targets.(d) :: !acc
  done;
  !acc

let iter_neighbors f g u =
  for d = g.offsets.(u) to g.offsets.(u + 1) - 1 do
    f g.targets.(d)
  done

let fold_neighbors f g u acc =
  let r = ref acc in
  for d = g.offsets.(u) to g.offsets.(u + 1) - 1 do
    r := f g.targets.(d) !r
  done;
  !r

let max_degree g =
  let best = ref 0 in
  for u = 0 to g.size - 1 do
    let d = degree g u in
    if d > !best then best := d
  done;
  !best

let has_edge g u v = slot g u v >= 0

let edges g =
  (* CSR slices are sorted, so walking nodes in increasing order and
     keeping only [u < v] yields the lexicographic order directly. *)
  let acc = ref [] in
  for u = g.size - 1 downto 0 do
    for d = g.offsets.(u + 1) - 1 downto g.offsets.(u) do
      let v = g.targets.(d) in
      if u < v then acc := (u, v) :: !acc
    done
  done;
  !acc

let link_index g u v =
  match slot g u v with
  | -1 -> raise Not_found
  | d -> d - g.offsets.(u) + 1  (* index 0 is the NCU link *)

let peer_via g u i =
  if i < 1 || i > degree g u then raise Not_found
  else g.targets.(g.offsets.(u) + i - 1)

(* -- flat directed-edge indexing (the fast-path API) ----------------- *)

let directed_edge_count g = Array.length g.targets

let edge_id g u i =
  if i < 1 || i > degree g u then raise Not_found else g.offsets.(u) + i - 1

let edge_target g e = g.targets.(e)
let edge_uid g e = g.uedge.(e)

let undirected_edge_id g u v =
  match slot g u v with -1 -> raise Not_found | d -> g.uedge.(d)

let fold_nodes f g acc =
  let r = ref acc in
  for u = 0 to g.size - 1 do
    r := f u !r
  done;
  !r

let iter_nodes f g =
  for u = 0 to g.size - 1 do
    f u
  done

let is_connected g =
  if g.size = 0 then true
  else begin
    let visited = Array.make g.size false in
    let stack = Array.make g.size 0 in
    let top = ref 1 in
    stack.(0) <- 0;
    visited.(0) <- true;
    let count = ref 1 in
    while !top > 0 do
      decr top;
      let u = stack.(!top) in
      for d = g.offsets.(u) to g.offsets.(u + 1) - 1 do
        let v = g.targets.(d) in
        if not visited.(v) then begin
          visited.(v) <- true;
          incr count;
          stack.(!top) <- v;
          incr top
        end
      done
    done;
    !count = g.size
  end

let induced g nodes =
  let members = List.sort_uniq Int.compare nodes in
  if members = [] then invalid_arg "Graph.induced: empty node list";
  List.iter
    (fun v ->
      if v < 0 || v >= g.size then
        invalid_arg (Printf.sprintf "Graph.induced: node %d out of range" v))
    members;
  let back = Array.of_list members in
  let fresh = Hashtbl.create (Array.length back) in
  Array.iteri (fun i v -> Hashtbl.replace fresh v i) back;
  let edges = ref [] in
  Array.iteri
    (fun i v ->
      iter_neighbors
        (fun u ->
          match Hashtbl.find_opt fresh u with
          | Some j when i < j -> edges := (i, j) :: !edges
          | _ -> ())
        g v)
    back;
  (of_edges ~n:(Array.length back) !edges, back)
