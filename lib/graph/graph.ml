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

let of_edges ~n edges =
  if n <= 0 then invalid_arg "Graph.of_edges: n must be positive";
  let check v =
    if v < 0 || v >= n then
      invalid_arg (Printf.sprintf "Graph.of_edges: node %d out of [0,%d)" v n)
  in
  List.iter
    (fun (u, v) ->
      check u;
      check v;
      if u = v then
        invalid_arg (Printf.sprintf "Graph.of_edges: self-loop at %d" u))
    edges;
  (* Encode each direction as [u * n + v]: sorting the codes with the
     monomorphic int order yields every CSR slice already sorted, and
     duplicate edges collapse as adjacent duplicates — no intermediate
     tuple-keyed table. *)
  let codes = Array.make (2 * List.length edges) 0 in
  List.iteri
    (fun i (u, v) ->
      codes.(2 * i) <- (u * n) + v;
      codes.((2 * i) + 1) <- (v * n) + u)
    edges;
  Array.sort Int.compare codes;
  let unique = ref 0 in
  Array.iteri
    (fun i c -> if i = 0 || codes.(i - 1) <> c then incr unique)
    codes;
  let slots = !unique in
  let offsets = Array.make (n + 1) 0 in
  let targets = Array.make slots 0 in
  let filled = ref 0 in
  Array.iteri
    (fun i c ->
      if i = 0 || codes.(i - 1) <> c then begin
        offsets.((c / n) + 1) <- offsets.((c / n) + 1) + 1;
        targets.(!filled) <- c mod n;
        incr filled
      end)
    codes;
  for u = 0 to n - 1 do
    offsets.(u + 1) <- offsets.(u) + offsets.(u + 1)
  done;
  let g =
    { size = n; offsets; targets; uedge = Array.make slots 0; edge_count = slots / 2 }
  in
  (* Undirected ids: assigned in order of first (smaller-endpoint)
     appearance; the reverse direction looks its id up in the forward
     slice. *)
  let next = ref 0 in
  for u = 0 to n - 1 do
    for d = offsets.(u) to offsets.(u + 1) - 1 do
      let v = targets.(d) in
      if u < v then begin
        g.uedge.(d) <- !next;
        incr next
      end
      else g.uedge.(d) <- g.uedge.(slot g v u)
    done
  done;
  g

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
