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

(* An int-keyed table: [Int.equal] and the identity hash, so a lookup
   calls neither the polymorphic hash nor [compare]. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash (k : int) = k
end)

(* A database is an overlay table over an optional shared [base]:
   preseeding n nodes with full topology knowledge installs ONE seq-0
   view array shared by every database (Θ(n) total instead of Θ(n²)
   per-node entries), and received views shadow it in the overlay.  A
   tracking database also keeps its believed edge set as a bitset,
   patched only where an origin's [downs] actually change, and counts
   the patches that flipped a bit in [version]. *)
type db = {
  mutable base : local_view array option;  (* indexed by origin *)
  tbl : local_view Itbl.t;
  graph : Graph.t option;  (* [Some] when tracking *)
  edges : Bytes.t;  (* believed-edge bitset; empty when not tracking *)
  mutable version : int;
}

let create ?graph () =
  {
    base = None;
    tbl = Itbl.create 16;
    graph;
    edges = (match graph with Some g -> bitset g | None -> Bytes.empty);
    version = 0;
  }

(* What [lookup] returns for an origin with no view, compared by
   physical equality: the per-message path allocates no option. *)
let absent = { origin = -1; seq = -1; downs = no_downs }

let from_base db origin =
  match db.base with
  | Some b when origin >= 0 && origin < Array.length b -> b.(origin)
  | _ -> absent

let lookup db origin =
  match Itbl.find db.tbl origin with
  | v -> v
  | exception Not_found -> from_base db origin

let find db origin =
  let v = lookup db origin in
  if v == absent then None else Some v

(* An edge of the physical graph is believed active iff at least one
   endpoint has reported and no reporting endpoint lists the other as
   down (the ARPANET AND rule; a single report is trusted).  [vu] and
   [vv] are the views of [u] and [v], possibly [absent]. *)
let believed_views vu u vv v =
  if vu == absent then vv != absent && not (reports_down vv u)
  else (not (reports_down vu v)) && (vv == absent || not (reports_down vv u))

let believed_edge db u v = believed_views (lookup db u) u (lookup db v) v

(* re-derive the bits of the links at [origin]: O(deg) *)
let refresh_origin db g origin =
  let vo = lookup db origin in
  let flipped = ref false in
  for i = 1 to Graph.degree g origin do
    let e = Graph.edge_id g origin i in
    let id = Graph.edge_uid g e in
    let peer = Graph.edge_target g e in
    if believed_views vo origin (lookup db peer) peer <> bit_mem db.edges id
    then begin
      bit_flip db.edges id;
      flipped := true
    end
  done;
  if !flipped then db.version <- db.version + 1

let rec same_from (a : int array) (b : int array) i =
  i < 0 || (a.(i) = b.(i) && same_from a b (i - 1))

let same_downs (a : int array) (b : int array) =
  a == b
  || (Array.length a = Array.length b && same_from a b (Array.length a - 1))

(* Only a change of the origin's [downs] (or its first report) can move
   the AND rule; a fresher seq over the same delta changes nothing. *)
let store db old view =
  Itbl.replace db.tbl view.origin view;
  match db.graph with
  | None -> ()
  | Some g ->
      if old == absent || not (same_downs old.downs view.downs) then
        refresh_origin db g view.origin

let attach_base db views =
  db.base <- Some views;
  match db.graph with
  | None -> ()
  | Some g ->
      for o = 0 to Graph.n g - 1 do
        refresh_origin db g o
      done

(* A database with no view and no base has every bit clear, so
   attaching the base takes each such database over one graph to the
   same bits by the same version count: derive them once, in a fresh
   database, and copy them. *)
let preseed dbs views =
  let template = ref None in
  let derived g =
    match !template with
    | Some (tg, t) when tg == g -> t
    | _ ->
        let t = create ~graph:g () in
        attach_base t views;
        template := Some (g, t);
        t
  in
  Array.iter
    (fun db ->
      match db.graph with
      | Some g when Option.is_none db.base && Itbl.length db.tbl = 0 ->
          let t = derived g in
          db.base <- Some views;
          Bytes.blit t.edges 0 db.edges 0 (Bytes.length t.edges);
          db.version <- db.version + t.version
      | _ -> attach_base db views)
    dbs

let clear db =
  Itbl.reset db.tbl;
  db.base <- None;
  Bytes.fill db.edges 0 (Bytes.length db.edges) '\000';
  db.version <- db.version + 1

let update db view =
  let stored = lookup db view.origin in
  if stored != absent && stored.seq >= view.seq then false
  else begin
    store db stored view;
    true
  end

let update_all db views =
  List.fold_left (fun acc v -> update db v || acc) false views

let set_own db view = store db (lookup db view.origin) view

let all_views db =
  match db.base with
  | None ->
      Itbl.fold (fun _ v acc -> v :: acc) db.tbl []
      |> List.sort (fun a b -> compare a.origin b.origin)
  | Some b ->
      (* the base covers every origin densely; the overlay shadows *)
      List.init (Array.length b) (lookup db)

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
