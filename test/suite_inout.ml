(* Tests for Core.Inout: the election's domain trees. *)

module I = Core.Inout
module B = Netgraph.Builders
module G = Netgraph.Graph

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_ints = Alcotest.(check (list int))

let route t ~src ~dst = Array.to_list (I.route_array t ~src ~dst)

(* [merge_into] on a winner the caller owns, returning it *)
let merged ~winner ~victim ~entry =
  I.merge_into ~winner ~victim ~entry;
  winner

(* The hash-table INOUT structure the flat table replaced, kept as the
   reference model: three [Hashtbl]s (parents, IN, OUT) and a re-rooting
   that copies the victim's parent map.  [out_min] is the head of the
   sorted OUT list, the specification the table's lazy heap meets. *)
module Ref = struct
  type t = {
    origin : int;
    parents : (int, int) Hashtbl.t;  (* member (/= origin) -> tree parent *)
    inset : (int, unit) Hashtbl.t;
    outset : (int, unit) Hashtbl.t;
  }

  let mem_in t v = Hashtbl.mem t.inset v
  let mem_out t v = Hashtbl.mem t.outset v
  let mem t v = mem_in t v || mem_out t v

  let sorted_keys tbl =
    Hashtbl.fold (fun k () acc -> k :: acc) tbl [] |> List.sort compare

  let in_nodes t = sorted_keys t.inset
  let out_nodes t = sorted_keys t.outset
  let size t = Hashtbl.length t.inset
  let out_size t = Hashtbl.length t.outset
  let out_min t = match out_nodes t with [] -> None | v :: _ -> Some v

  let singleton ~graph v =
    let parents = Hashtbl.create 8 in
    let inset = Hashtbl.create 4 in
    let outset = Hashtbl.create 8 in
    Hashtbl.replace inset v ();
    G.iter_neighbors
      (fun peer ->
        Hashtbl.replace outset peer ();
        Hashtbl.replace parents peer v)
      graph v;
    { origin = v; parents; inset; outset }

  let spanning_tree t =
    Netgraph.Tree.of_parents ~root:t.origin
      ~parents:(Hashtbl.fold (fun v p acc -> (v, p) :: acc) t.parents [])

  let depth t v =
    let rec up v d =
      match Hashtbl.find_opt t.parents v with
      | None -> d
      | Some p -> up p (d + 1)
    in
    up v 0

  let route_array t ~src ~dst =
    if not (mem t src && mem t dst) then invalid_arg "Ref.route";
    let parent v = Hashtbl.find t.parents v in
    let dsrc = depth t src and ddst = depth t dst in
    let rec lift v k = if k = 0 then v else lift (parent v) (k - 1) in
    let rec meet u v d = if u = v then d else meet (parent u) (parent v) (d - 1) in
    let dlca =
      if dsrc >= ddst then meet (lift src (dsrc - ddst)) dst ddst
      else meet src (lift dst (ddst - dsrc)) dsrc
    in
    let up_len = dsrc - dlca in
    let len = up_len + (ddst - dlca) + 1 in
    let arr = Array.make len 0 in
    let rec fill_up v i =
      arr.(i) <- v;
      if i < up_len then fill_up (parent v) (i + 1)
    in
    fill_up src 0;
    let rec fill_down v i =
      if i > up_len then begin
        arr.(i) <- v;
        fill_down (parent v) (i - 1)
      end
    in
    fill_down dst (len - 1);
    arr

  let rerooted_parents t r =
    let parents = Hashtbl.copy t.parents in
    let rec flip v =
      match Hashtbl.find_opt t.parents v with
      | None -> ()
      | Some p ->
          flip p;
          Hashtbl.replace parents p v
    in
    flip r;
    Hashtbl.remove parents r;
    parents

  let merge_into ~winner ~victim ~entry =
    if not (mem_out winner entry && mem_in victim entry) then
      invalid_arg "Ref.merge_into";
    let victim_parents = rerooted_parents victim entry in
    Hashtbl.iter
      (fun v p -> if not (mem winner v) then Hashtbl.replace winner.parents v p)
      victim_parents;
    Hashtbl.iter
      (fun v () ->
        Hashtbl.replace winner.inset v ();
        Hashtbl.remove winner.outset v)
      victim.inset;
    Hashtbl.iter
      (fun v () ->
        if not (Hashtbl.mem winner.inset v) then
          Hashtbl.replace winner.outset v ())
      victim.outset
end

(* Everything a caller can observe of a domain: the route of every
   member pair, the tree's edges and the packed announcement tour. *)
type view = {
  ins : int list;
  outs : int list;
  size : int;
  out_size : int;
  out_min : int option;
  routes : int list list;
  edges : (int * int) list;
  tour : int list;
}

let tree_edges tree = List.sort compare (Netgraph.Tree.edges tree)

let view_of ~ins ~outs ~size ~out_size ~out_min ~route ~tree ~tour =
  let members = ins @ outs in
  {
    ins;
    outs;
    size;
    out_size;
    out_min;
    routes =
      List.concat_map
        (fun src -> List.map (fun dst -> route ~src ~dst) members)
        members;
    edges = tree_edges tree;
    tour;
  }

let view t =
  view_of ~ins:(I.in_nodes t) ~outs:(I.out_nodes t) ~size:(I.size t)
    ~out_size:(I.out_size t) ~out_min:(I.out_min t) ~route:(route t)
    ~tree:(I.spanning_tree t) ~tour:(Array.to_list (I.tour t))

let ref_view r =
  let tree = Ref.spanning_tree r in
  view_of ~ins:(Ref.in_nodes r) ~outs:(Ref.out_nodes r) ~size:(Ref.size r)
    ~out_size:(Ref.out_size r) ~out_min:(Ref.out_min r)
    ~route:(fun ~src ~dst -> Array.to_list (Ref.route_array r ~src ~dst))
    ~tree
    ~tour:
      (List.map
         (fun (v, first) -> (v lsl 1) lor if first then 1 else 0)
         (Core.Walks.mark_first_visits
            (Core.Walks.truncate (Core.Walks.euler_tour tree))))

(* The first field on which two views differ, if any. *)
let view_diff a b =
  List.find_opt
    (fun (_, same) -> not same)
    [
      ("in_nodes", a.ins = b.ins);
      ("out_nodes", a.outs = b.outs);
      ("size", a.size = b.size);
      ("out_size", a.out_size = b.out_size);
      ("out_min", a.out_min = b.out_min);
      ("route_array", a.routes = b.routes);
      ("spanning_tree edges", a.edges = b.edges);
      ("tour", a.tour = b.tour);
    ]
  |> Option.map fst

let test_singleton () =
  let g = B.star 4 in
  let t = I.singleton ~graph:g 0 in
  check_int "origin" 0 (I.origin t);
  check_ints "IN" [ 0 ] (I.in_nodes t);
  check_ints "OUT = neighbours" [ 1; 2; 3 ] (I.out_nodes t);
  check_int "size 1" 1 (I.size t);
  check_bool "valid" true (I.is_valid ~graph:g t)

let test_singleton_leaf () =
  let g = B.path 3 in
  let t = I.singleton ~graph:g 2 in
  check_ints "OUT" [ 1 ] (I.out_nodes t)

let test_route_singleton () =
  let g = B.star 4 in
  let t = I.singleton ~graph:g 0 in
  check_ints "origin to out" [ 0; 2 ] (route t ~src:0 ~dst:2);
  check_ints "out to out" [ 1; 0; 2 ] (route t ~src:1 ~dst:2);
  check_ints "self" [ 0 ] (route t ~src:0 ~dst:0)

let test_route_unrecorded_rejected () =
  let g = B.path 4 in
  let t = I.singleton ~graph:g 0 in
  check_bool "raises" true
    (try ignore (I.route_array t ~src:0 ~dst:3); false
     with Invalid_argument _ -> true)

let test_merge_simple () =
  let g = B.path 3 in
  (* 0 captures 1's domain through entry 1 *)
  let w = I.singleton ~graph:g 0 and v = I.singleton ~graph:g 1 in
  let m = merged ~winner:w ~victim:v ~entry:1 in
  check_int "origin stays" 0 (I.origin m);
  check_ints "IN" [ 0; 1 ] (I.in_nodes m);
  check_ints "OUT" [ 2 ] (I.out_nodes m);
  check_int "size" 2 (I.size m);
  check_bool "valid" true (I.is_valid ~graph:g m);
  check_ints "route across merge" [ 0; 1; 2 ] (route m ~src:0 ~dst:2)

let test_merge_entry_must_be_winner_out () =
  let g = B.path 4 in
  let w = I.singleton ~graph:g 0 and v = I.singleton ~graph:g 3 in
  check_bool "raises" true
    (try I.merge_into ~winner:w ~victim:v ~entry:3; false
     with Invalid_argument _ -> true)

let test_merge_entry_must_be_victim_in () =
  let g = B.path 3 in
  let w = I.singleton ~graph:g 0 and v = I.singleton ~graph:g 2 in
  check_bool "raises" true
    (try I.merge_into ~winner:w ~victim:v ~entry:1; false
     with Invalid_argument _ -> true)

let test_merge_overlapping_outs () =
  (* triangle: both domains have the third node in OUT *)
  let g = B.complete 3 in
  let w = I.singleton ~graph:g 0 and v = I.singleton ~graph:g 1 in
  let m = merged ~winner:w ~victim:v ~entry:1 in
  check_ints "OUT deduplicated" [ 2 ] (I.out_nodes m);
  check_bool "valid" true (I.is_valid ~graph:g m)

let test_merge_chain_routes_stay_linear () =
  (* absorb a path one domain at a time; routes never exceed the
     member count *)
  let n = 10 in
  let g = B.path n in
  let t = ref (I.singleton ~graph:g 0) in
  for v = 1 to n - 1 do
    let victim = I.singleton ~graph:g v in
    t := merged ~winner:!t ~victim ~entry:v;
    check_bool "valid at each step" true (I.is_valid ~graph:g !t)
  done;
  check_int "all IN" n (I.size !t);
  check_ints "OUT empty" [] (I.out_nodes !t);
  let r = route !t ~src:0 ~dst:(n - 1) in
  check_bool "linear route" true (List.length r <= n)

let test_merge_nested_domains () =
  (* 1 captures 2; then 0 captures 1's merged domain *)
  let g = B.path 4 in
  let d1 = merged ~winner:(I.singleton ~graph:g 1)
      ~victim:(I.singleton ~graph:g 2) ~entry:2 in
  let d0 = merged ~winner:(I.singleton ~graph:g 0) ~victim:d1 ~entry:1 in
  check_ints "IN" [ 0; 1; 2 ] (I.in_nodes d0);
  check_ints "OUT" [ 3 ] (I.out_nodes d0);
  check_bool "valid" true (I.is_valid ~graph:g d0);
  (* route from the deep node back to the origin *)
  check_ints "route 2 -> 0" [ 2; 1; 0 ] (route d0 ~src:2 ~dst:0)

let test_spanning_tree_when_out_empty () =
  let g = B.ring 5 in
  let t = ref (I.singleton ~graph:g 0) in
  List.iter
    (fun v -> t := merged ~winner:!t ~victim:(I.singleton ~graph:g v) ~entry:v)
    [ 1; 4; 2; 3 ];
  check_ints "OUT empty" [] (I.out_nodes !t);
  let tree = I.spanning_tree !t in
  check_bool "spans the ring" true (Netgraph.Tree.spans tree g)

let qcheck_random_merge_sequences =
  QCheck.Test.make ~name:"random capture sequences keep invariants" ~count:60
    QCheck.(pair (int_range 3 25) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Sim.Rng.create ~seed in
      let g = B.random_connected rng ~n ~extra_edges:(n / 2) in
      let domains = Hashtbl.create n in
      for v = 0 to n - 1 do
        Hashtbl.replace domains v (I.singleton ~graph:g v)
      done;
      (* every node remembers the origin of the domain that holds it *)
      let owner = Array.init n Fun.id in
      let rec owner_of v = if owner.(v) = v then v else owner_of owner.(v) in
      let ok = ref true in
      while !ok && Hashtbl.length domains > 1 do
        let origins = Hashtbl.fold (fun k _ a -> k :: a) domains [] in
        let winner_o = Sim.Rng.pick rng origins in
        let w = Hashtbl.find domains winner_o in
        match I.out_nodes w with
        | [] -> ok := false  (* impossible on a connected graph *)
        | outs ->
            let entry = Sim.Rng.pick rng outs in
            let victim_o = owner_of entry in
            let v = Hashtbl.find domains victim_o in
            I.merge_into ~winner:w ~victim:v ~entry;
            if not (I.is_valid ~graph:g w) then ok := false;
            Hashtbl.remove domains victim_o;
            owner.(victim_o) <- winner_o
      done;
      !ok
      && Hashtbl.fold (fun _ d acc -> acc && I.size d = n) domains true)

(* The table against the reference model over random capture
   sequences: n up to 40 makes the winners' tables grow several times
   past their first capacity.  After every capture the winners agree
   on every observable, and the victim's own view is unchanged — the
   frozen-alias invariant election relies on when captured nodes keep
   routing through their domain as it was at capture time. *)
let qcheck_differential_against_reference =
  QCheck.Test.make ~name:"table matches the Hashtbl reference" ~count:100
    QCheck.(pair (int_range 2 40) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Sim.Rng.create ~seed in
      let g = B.random_connected rng ~n ~extra_edges:(n / 2) in
      let domains =
        Array.init n (fun v ->
            Some (I.singleton ~graph:g v, Ref.singleton ~graph:g v))
      in
      let owner = Array.init n Fun.id in
      let rec owner_of v = if owner.(v) = v then v else owner_of owner.(v) in
      let live () =
        List.filter (fun v -> domains.(v) <> None) (List.init n Fun.id)
      in
      let fail step what =
        QCheck.Test.fail_reportf "n=%d seed=%d capture %d: %s" n seed step what
      in
      let step = ref 0 in
      while List.length (live ()) > 1 do
        incr step;
        let wo = Sim.Rng.pick rng (live ()) in
        let w, rw = Option.get domains.(wo) in
        let entry = Sim.Rng.pick rng (Ref.out_nodes rw) in
        let vo = owner_of entry in
        let v, rv = Option.get domains.(vo) in
        let before = view v in
        I.merge_into ~winner:w ~victim:v ~entry;
        Ref.merge_into ~winner:rw ~victim:rv ~entry;
        (match view_diff (view w) (ref_view rw) with
        | Some field -> fail !step ("winner " ^ field ^ " differs")
        | None -> ());
        (match view_diff (view v) before with
        | Some field -> fail !step ("victim " ^ field ^ " changed")
        | None -> ());
        if not (I.is_valid ~graph:g w) then fail !step "winner invalid";
        domains.(vo) <- None;
        owner.(vo) <- wo
      done;
      true)

let suite =
  [
    Alcotest.test_case "singleton" `Quick test_singleton;
    Alcotest.test_case "singleton leaf" `Quick test_singleton_leaf;
    Alcotest.test_case "route singleton" `Quick test_route_singleton;
    Alcotest.test_case "route unrecorded" `Quick test_route_unrecorded_rejected;
    Alcotest.test_case "merge simple" `Quick test_merge_simple;
    Alcotest.test_case "merge entry winner OUT" `Quick test_merge_entry_must_be_winner_out;
    Alcotest.test_case "merge entry victim IN" `Quick test_merge_entry_must_be_victim_in;
    Alcotest.test_case "merge overlapping OUTs" `Quick test_merge_overlapping_outs;
    Alcotest.test_case "chain of merges" `Quick test_merge_chain_routes_stay_linear;
    Alcotest.test_case "nested domains" `Quick test_merge_nested_domains;
    Alcotest.test_case "spanning tree at the end" `Quick test_spanning_tree_when_out_empty;
    QCheck_alcotest.to_alcotest qcheck_random_merge_sequences;
    QCheck_alcotest.to_alcotest qcheck_differential_against_reference;
  ]
