(* ASCII renderings of the paper's five illustrative figures, each
   regenerated from live library objects rather than hard-coded where a
   computation is involved (Figures 2-5). *)

let say fmt = Printf.printf (fmt ^^ "\n")

(* Figure 1: a node = switching subsystem + network control unit. *)
let figure_1 () =
  say "Figure 1 - node structure";
  say "";
  say "              +---------------------+";
  say "              |  NCU  (software)    |   one general-purpose";
  say "              |  network control    |   processor per node;";
  say "              +----------+----------+   each visit costs P";
  say "                         | link id 0";
  say "              +----------+----------+";
  say "   link 1 ----+                     +---- link 3";
  say "              |   SS  (hardware)    |";
  say "   link 2 ----+   switching         +---- link 4";
  say "              |   subsystem         |";
  say "              +---------------------+    each hop costs C";
  say ""

(* Figure 2: ANR source routing through real switches. *)
let figure_2 () =
  say "Figure 2 - Automatic Network Routing (ANR)";
  say "";
  let g = Netgraph.Builders.path 4 in
  let route = Hardware.Anr.of_walk g [| 0; 1; 2; 3 |] in
  say "  network: 0 -- 1 -- 2 -- 3";
  say "  node 0 sends to node 3 with header %s"
    (Format.asprintf "%a" Hardware.Anr.pp route);
  say "  each switch consumes one element; the final 'NCU' element";
  say "  delivers the payload to node 3's processor.";
  (* every element but the final NCU one crosses a link *)
  say "  hops traversed: %d, software visits en route: 0"
    (Hardware.Anr.route_length route - 1);
  say ""

(* Figure 3: the selective copy. *)
let figure_3 () =
  say "Figure 3 - selective copy";
  say "";
  let g = Netgraph.Builders.path 4 in
  let route =
    Hardware.Anr.of_walk ~copy_at:(fun v -> v = 2) g [| 0; 1; 2; 3 |]
  in
  say "  header %s : element 'c2' is a copy ID"
    (Format.asprintf "%a" Hardware.Anr.pp route);
  say "  the packet is forwarded to node 3 AND copied to node 2's NCU:";
  say "  NCUs receiving the payload: %s"
    (String.concat ", "
       (List.map string_of_int (Hardware.Anr.copy_targets g ~src:0 route)));
  say ""

(* Figure 4: the branching-path labelling and decomposition on a
   concrete tree (recomputed live). *)
let figure_4 () =
  say "Figure 4 - the branching-paths broadcast";
  say "";
  let parents =
    [ (1, 0); (2, 0); (3, 1); (4, 1); (5, 2); (6, 3); (7, 3); (8, 5); (9, 8) ]
  in
  let tree = Netgraph.Tree.of_parents ~root:0 ~parents in
  let l = Core.Labels.compute tree in
  say "  broadcast tree (node:label):";
  let rec render prefix v =
    say "  %s%d:%d" prefix v (Core.Labels.label l v);
    List.iter (render (prefix ^ "   ")) (Netgraph.Tree.children tree v)
  in
  render "" 0;
  say "";
  say "  monochromatic paths (head first):";
  List.iter
    (fun p ->
      say "    label %d: %s" (Core.Labels.path_label l p)
        (String.concat " -> " (List.map string_of_int p)))
    (Core.Labels.paths l);
  say "  broadcast time: %d path generations (max label %d, log2 %d = %.2f)"
    (Core.Labels.max_path_depth l)
    (Core.Labels.max_label l)
    (Netgraph.Tree.size tree)
    (Sim.Stats.log2 (float_of_int (Netgraph.Tree.size tree)));
  say ""

(* Figure 5: the election example - two candidates with supporters. *)
let figure_5 () =
  say "Figure 5 - leader election example";
  say "";
  say "  candidate A (origin)          candidate B (origin)";
  say "    supporters: E, F, G           supporters: H, I, ...";
  say "  A tours: it reaches E's domain pointer and follows the";
  say "  virtual-tree parents toward B, but never more than";
  say "  phase+1 = floor(log2 |domain|)+1 direct messages.";
  say "";
  let g = Netgraph.Builders.grid ~rows:3 ~cols:4 in
  let o = Core.Election.run ~graph:g () in
  say "  live run on a 3x4 grid:";
  say "    leader elected: node %d" o.Core.Election.leader;
  say "    captures: %d, tours: %d" o.captures o.tours;
  say "    direct messages (system calls): %d <= 6n = %d"
    o.election_syscalls
    (6 * Netgraph.Graph.n g);
  say ""

let run () =
  figure_1 ();
  figure_2 ();
  figure_3 ();
  figure_4 ();
  figure_5 ()
