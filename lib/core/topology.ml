module Graph = Netgraph.Graph

(* A local view is a delta against the physical adjacency: the origin
   has reported, and every incident link is believed up except the
   peers listed in [downs].  Healthy nodes all share [no_downs], so a
   steady-state view costs four words regardless of degree — the
   Θ(deg) [(peer * bool) list] payloads this replaces dominated a
   maintenance round's allocation. *)
type local_view = { origin : int; seq : int; downs : int array }

let no_downs : int array = [||]

(* membership in the sorted [downs] array *)
let reports_down view peer =
  let d = view.downs in
  let rec bs lo hi =
    if lo >= hi then false
    else
      let mid = (lo + hi) / 2 in
      if d.(mid) = peer then true
      else if d.(mid) < peer then bs (mid + 1) hi
      else bs lo mid
  in
  bs 0 (Array.length d)

(* The believed-edge bitset: bit [e land 7] of byte [e lsr 3] stands
   for the physical link with undirected edge id [e]. *)
let bit_mem bits e =
  Char.code (Bytes.get bits (e lsr 3)) land (1 lsl (e land 7)) <> 0

let bit_flip bits e =
  let i = e lsr 3 in
  let byte = Char.code (Bytes.get bits i) in
  Bytes.set bits i (Char.chr (byte lxor (1 lsl (e land 7))))

let bitset g = Bytes.make ((Graph.m g + 7) / 8) '\000'

(* the bitset of the physical edges [(u, v)] with [mem u v] *)
let edge_set g mem =
  let bits = bitset g in
  for u = 0 to Graph.n g - 1 do
    for i = 1 to Graph.degree g u do
      let e = Graph.edge_id g u i in
      let v = Graph.edge_target g e in
      if u < v && mem u v then bit_flip bits (Graph.edge_uid g e)
    done
  done;
  bits

(* A database is an overlay hashtable over an optional shared [base]:
   preseeding n nodes with full topology knowledge installs ONE
   seq-0 view array shared by every database (Θ(n) total instead of
   Θ(n²) per-node entries), and received views shadow it in the
   overlay.  A tracking database also keeps its believed edge set as a
   bitset, patched only where an origin's [downs] actually change, and
   counts the patches that flipped a bit in [version]. *)
type db = {
  mutable base : local_view array option;  (* indexed by origin *)
  tbl : (int, local_view) Hashtbl.t;
  graph : Graph.t option;  (* [Some] when tracking *)
  edges : Bytes.t;  (* believed-edge bitset; empty when not tracking *)
  mutable version : int;
}

let create ?graph () =
  {
    base = None;
    tbl = Hashtbl.create 16;
    graph;
    edges = (match graph with Some g -> bitset g | None -> Bytes.empty);
    version = 0;
  }

let find db origin =
  match Hashtbl.find_opt db.tbl origin with
  | Some _ as v -> v
  | None -> (
      match db.base with
      | Some b when origin >= 0 && origin < Array.length b -> Some b.(origin)
      | _ -> None)

(* An edge of the physical graph is believed active iff at least one
   endpoint has reported and no reporting endpoint lists the other as
   down (the ARPANET AND rule; a single report is trusted). *)
let believed_edge db u v =
  match (find db u, find db v) with
  | None, None -> false
  | Some vu, None -> not (reports_down vu v)
  | None, Some vv -> not (reports_down vv u)
  | Some vu, Some vv -> not (reports_down vu v) && not (reports_down vv u)

(* re-derive the bits of the links at [origin]: O(deg) *)
let refresh_origin db g origin =
  let flipped = ref false in
  for i = 1 to Graph.degree g origin do
    let e = Graph.edge_id g origin i in
    let id = Graph.edge_uid g e in
    if believed_edge db origin (Graph.edge_target g e) <> bit_mem db.edges id
    then begin
      bit_flip db.edges id;
      flipped := true
    end
  done;
  if !flipped then db.version <- db.version + 1

(* Only a change of the origin's [downs] (or its first report) can move
   the AND rule; a fresher seq over the same delta changes nothing. *)
let store db (old : local_view option) view =
  Hashtbl.replace db.tbl view.origin view;
  match (db.graph, old) with
  | None, _ -> ()
  | Some _, Some o when o.downs == view.downs || o.downs = view.downs -> ()
  | Some g, _ -> refresh_origin db g view.origin

let attach_base db views =
  db.base <- Some views;
  match db.graph with
  | None -> ()
  | Some g ->
      for o = 0 to Graph.n g - 1 do
        refresh_origin db g o
      done

let clear db =
  Hashtbl.reset db.tbl;
  db.base <- None;
  Bytes.fill db.edges 0 (Bytes.length db.edges) '\000';
  db.version <- db.version + 1

let update db view =
  match find db view.origin with
  | Some stored when stored.seq >= view.seq -> false
  | old ->
      store db old view;
      true

let update_all db views =
  List.fold_left (fun acc v -> update db v || acc) false views

let set_own db view = store db (find db view.origin) view

let all_views db =
  match db.base with
  | None ->
      Hashtbl.fold (fun _ v acc -> v :: acc) db.tbl []
      |> List.sort (fun a b -> compare a.origin b.origin)
  | Some b ->
      (* the base covers every origin densely; the overlay shadows *)
      Array.to_list
        (Array.mapi
           (fun o bv ->
             match Hashtbl.find_opt db.tbl o with Some v -> v | None -> bv)
           b)

let version db = db.version

let check_tracked db =
  match db.graph with
  | Some _ -> ()
  | None -> invalid_arg "Topology: the database does not track believed edges"

let believes db e =
  check_tracked db;
  bit_mem db.edges e

(* [T77] on [node]'s actual component: both edge sets are subgraphs of
   the physical graph, so the component is compared by reachability
   over masked adjacency, then edge by edge inside it. *)
let agrees_on_component g ~believed ~actual ~node =
  let reach bits =
    Netgraph.Traversal.distances g ~root:node ~edge_up:(bit_mem bits)
  in
  let in_actual = reach actual and in_believed = reach believed in
  let n = Graph.n g in
  let rec same_members v =
    v >= n
    || ((in_actual.(v) >= 0) = (in_believed.(v) >= 0) && same_members (v + 1))
  in
  let rec same_edges u i =
    if u >= n then true
    else if in_actual.(u) < 0 || i > Graph.degree g u then same_edges (u + 1) 1
    else
      let e = Graph.edge_id g u i in
      let id = Graph.edge_uid g e in
      (in_actual.(Graph.edge_target g e) < 0
      || bit_mem believed id = bit_mem actual id)
      && same_edges u (i + 1)
  in
  same_members 0 && same_edges 0 1

let consistent_with db ~graph ~actual ~node =
  agrees_on_component graph
    ~believed:(edge_set graph (believed_edge db))
    ~actual:(edge_set graph (Graph.has_edge actual))
    ~node

type live = { graph : Graph.t; bits : Bytes.t; connected : bool }

let live graph ~up =
  let bits = edge_set graph up in
  let reach =
    Netgraph.Traversal.distances graph ~root:0 ~edge_up:(bit_mem bits)
  in
  { graph; bits; connected = Array.for_all (fun d -> d >= 0) reach }

(* Equal sets are consistent on every component.  When the live graph
   is connected the component is everything, so [T77] demands equal
   sets and a difference is a verdict too; only a partitioned network
   needs the per-component comparison. *)
let consistent_live db live ~node =
  check_tracked db;
  Bytes.equal db.edges live.bits
  || ((not live.connected)
     && agrees_on_component live.graph ~believed:db.edges ~actual:live.bits
          ~node)
