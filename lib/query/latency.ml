(* The aggregator is the streaming twin of [Analysis.Event_dag]'s
   Message edges: rather than building the DAG and walking edges, it
   keeps two floats per in-flight packet (injection time, time of the
   packet's previous event) and updates the histograms as events
   arrive.  On a materialised trace the two give identical samples;
   only this form works on a 10^6-line stream. *)

(* Layout matters as much as size here.  OCaml 5.1 cannot compact the
   major heap, so long-lived small blocks (hashtable cons cells, boxed
   floats) allocated between a traced run's event churn end up spread
   a few per 16 KiB pool — the aggregator's ~40 MB would pin hundreds
   of MB of pools and blow the bench --mem-budget gate.  All per-packet
   and per-link state therefore lives in a handful of large parallel
   arrays (which the runtime places outside the pools), keyed through
   one open-addressing index. *)
module Index = struct
  type t = {
    mutable key_u : int array;
    mutable key_v : int array;
    mutable idxs : int array; (* dense index, or -1 for an empty slot *)
    mutable mask : int;
    mutable count : int;
  }

  let create () =
    { key_u = Array.make 16 0;
      key_v = Array.make 16 0;
      idxs = Array.make 16 (-1);
      mask = 15;
      count = 0 }

  let slot t u v =
    (* multiply-mix both words; the high product bits are well mixed
       whatever the key distribution (sequential msg ids, packed link
       endpoints) *)
    ((u * 0x2545F4914F6CDD1D) lxor (v * 0x27220A95FE5DB9F1)) lsr 32 land t.mask

  (* returns the occupied slot holding (u, v), or [-1 - i] for the
     empty slot i where it would insert *)
  let rec probe t u v i =
    if t.idxs.(i) < 0 then -1 - i
    else if t.key_u.(i) = u && t.key_v.(i) = v then i
    else probe t u v ((i + 1) land t.mask)

  let find t u v =
    let i = probe t u v (slot t u v) in
    if i >= 0 then t.idxs.(i) else -1

  let grow t =
    let ou = t.key_u and ov = t.key_v and oi = t.idxs in
    let size = 2 * Array.length ou in
    t.key_u <- Array.make size 0;
    t.key_v <- Array.make size 0;
    t.idxs <- Array.make size (-1);
    t.mask <- size - 1;
    Array.iteri
      (fun j idx ->
        if idx >= 0 then begin
          let u = ou.(j) and v = ov.(j) in
          let i = -1 - probe t u v (slot t u v) in
          t.key_u.(i) <- u;
          t.key_v.(i) <- v;
          t.idxs.(i) <- idx
        end)
      oi

  (* dense indices are handed out sequentially, so a fresh key always
     maps to the previous [count] — callers detect insertion by
     comparing [count] before and after *)
  let find_or_add t u v =
    let i = probe t u v (slot t u v) in
    if i >= 0 then t.idxs.(i)
    else begin
      let idx = t.count in
      t.count <- t.count + 1;
      let i = -1 - i in
      t.key_u.(i) <- u;
      t.key_v.(i) <- v;
      t.idxs.(i) <- idx;
      (* keep load at or below 1/2 *)
      if 2 * t.count >= Array.length t.idxs then grow t;
      idx
    end

  let count t = t.count
end

(* A full histogram per directed link would cost ~9 KiB each — ruinous
   on a flooding run that exercises 10^5 links.  Four words per link
   keep the per-link section O(1) each; the global [hop] histogram
   still answers the percentile questions. *)
type link_stat = {
  ls_count : int;
  ls_total : float;
  ls_min : float;
  ls_max : float;
}

type t = {
  c : float;
  p : float;
  hop : Histo.t;
  delivery : Histo.t;
  e2e : Histo.t;
  (* msg_id -> dense packet slot; sent/last are unboxed float columns *)
  packets : Index.t;
  mutable pk_sent : float array;
  mutable pk_last : float array;
  (* (src, dst) -> dense link slot; the four-word summary as columns *)
  link_index : Index.t;
  mutable lk_src : int array;
  mutable lk_dst : int array;
  mutable lk_count : int array;
  mutable lk_total : float array;
  mutable lk_min : float array;
  mutable lk_max : float array;
  mutable messages : int;
  mutable deliveries : int;
  mutable unknown : int;
  mutable c_work : float;
  mutable p_work : float;
  mutable wait : float;
}

let create ?cost () =
  let cost =
    match cost with Some c -> c | None -> Hardware.Cost_model.new_model ()
  in
  {
    c = cost.Hardware.Cost_model.c;
    p = cost.Hardware.Cost_model.p;
    hop = Histo.create ();
    delivery = Histo.create ();
    e2e = Histo.create ();
    packets = Index.create ();
    pk_sent = Array.make 256 0.0;
    pk_last = Array.make 256 0.0;
    link_index = Index.create ();
    lk_src = Array.make 256 0;
    lk_dst = Array.make 256 0;
    lk_count = Array.make 256 0;
    lk_total = Array.make 256 0.0;
    lk_min = Array.make 256 0.0;
    lk_max = Array.make 256 0.0;
    messages = 0;
    deliveries = 0;
    unknown = 0;
    c_work = 0.0;
    p_work = 0.0;
    wait = 0.0;
  }

let grow_float a n =
  let b = Array.make (max n (2 * Array.length a)) 0.0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow_int a n =
  let b = Array.make (max n (2 * Array.length a)) 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let packet_slot t msg_id =
  let i = Index.find_or_add t.packets msg_id 0 in
  if i >= Array.length t.pk_sent then begin
    t.pk_sent <- grow_float t.pk_sent (i + 1);
    t.pk_last <- grow_float t.pk_last (i + 1)
  end;
  i

let link_slot t src dst =
  let before = Index.count t.link_index in
  let i = Index.find_or_add t.link_index src dst in
  if i >= Array.length t.lk_src then begin
    t.lk_src <- grow_int t.lk_src (i + 1);
    t.lk_dst <- grow_int t.lk_dst (i + 1);
    t.lk_count <- grow_int t.lk_count (i + 1);
    t.lk_total <- grow_float t.lk_total (i + 1);
    t.lk_min <- grow_float t.lk_min (i + 1);
    t.lk_max <- grow_float t.lk_max (i + 1)
  end;
  if Index.count t.link_index > before then begin
    t.lk_src.(i) <- src;
    t.lk_dst.(i) <- dst;
    t.lk_count.(i) <- 0;
    t.lk_total.(i) <- 0.0;
    t.lk_min.(i) <- infinity;
    t.lk_max.(i) <- neg_infinity
  end;
  i

let link_observe t i v =
  t.lk_count.(i) <- t.lk_count.(i) + 1;
  t.lk_total.(i) <- t.lk_total.(i) +. v;
  if v < t.lk_min.(i) then t.lk_min.(i) <- v;
  if v > t.lk_max.(i) then t.lk_max.(i) <- v

let observe t (e : Sim.Trace.event) =
  match e with
  | Sim.Trace.Send { time; msg_id; _ } ->
      t.messages <- t.messages + 1;
      let i = packet_slot t msg_id in
      t.pk_sent.(i) <- time;
      t.pk_last.(i) <- time
  | Sim.Trace.Hop { src; dst; time; msg_id } ->
      let i = Index.find t.packets msg_id 0 in
      if i < 0 then t.unknown <- t.unknown + 1
      else begin
        let elapsed = time -. t.pk_last.(i) in
        t.pk_last.(i) <- time;
        if elapsed >= 0.0 then begin
          Histo.observe t.hop elapsed;
          link_observe t (link_slot t src dst) elapsed;
          (* the switch itself is bounded by C; anything above it
             waited in a queue *)
          let work = Float.min t.c elapsed in
          t.c_work <- t.c_work +. work;
          t.wait <- t.wait +. (elapsed -. work)
        end
      end
  | Sim.Trace.Receive { time; msg_id; _ } ->
      let i = Index.find t.packets msg_id 0 in
      if i < 0 then t.unknown <- t.unknown + 1
      else begin
        let elapsed = time -. t.pk_last.(i) in
        let span = time -. t.pk_sent.(i) in
        (* a copy route keeps delivering the same packet: leave the
           state live so later hops still chain *)
        t.pk_last.(i) <- time;
        t.deliveries <- t.deliveries + 1;
        if elapsed >= 0.0 then begin
          Histo.observe t.delivery elapsed;
          let work = Float.min t.p elapsed in
          t.p_work <- t.p_work +. work;
          t.wait <- t.wait +. (elapsed -. work)
        end;
        if span >= 0.0 then Histo.observe t.e2e span
      end
  | Sim.Trace.Syscall _ | Sim.Trace.Drop _ | Sim.Trace.Link_change _
  | Sim.Trace.Custom _ ->
      ()

let c t = t.c
let p t = t.p
let hop t = t.hop
let delivery t = t.delivery
let e2e t = t.e2e
let messages t = t.messages
let deliveries t = t.deliveries
let unknown t = t.unknown
let c_work t = t.c_work
let p_work t = t.p_work
let wait t = t.wait

let links t =
  let all = ref [] in
  for i = Index.count t.link_index - 1 downto 0 do
    all :=
      ( (t.lk_src.(i), t.lk_dst.(i)),
        {
          ls_count = t.lk_count.(i);
          ls_total = t.lk_total.(i);
          ls_min = t.lk_min.(i);
          ls_max = t.lk_max.(i);
        } )
      :: !all
  done;
  List.sort
    (fun ((l1 : int * int), s1) (l2, s2) ->
      match compare s2.ls_count s1.ls_count with
      | 0 -> compare l1 l2
      | d -> d)
    !all

let link_mean s = if s.ls_count = 0 then nan else s.ls_total /. float_of_int s.ls_count
let link_min s = if s.ls_count = 0 then nan else s.ls_min
let link_max s = if s.ls_count = 0 then nan else s.ls_max

module J = Sim.Json

(* -- rendering ---------------------------------------------------------- *)

let dist_fields h =
  [
    ("count", float_of_int (Histo.count h));
    ("mean", Histo.mean h);
    ("min", Histo.min_value h);
    ("max", Histo.max_value h);
    ("p50", Histo.quantile h 0.5);
    ("p95", Histo.quantile h 0.95);
    ("p99", Histo.quantile h 0.99);
  ]

(* empty distributions print 0s, not "nan" (which is not JSON) *)
let dist_json h =
  let field (k, v) =
    Printf.sprintf "\"%s\":%s" k
      (J.float (if Float.is_nan v then 0.0 else v))
  in
  "{" ^ String.concat "," (List.map field (dist_fields h)) ^ "}"

let to_json t =
  let all_links = links t in
  let shown, elided =
    let rec split n = function
      | l when n = 0 -> ([], List.length l)
      | [] -> ([], 0)
      | x :: rest ->
          let s, e = split (n - 1) rest in
          (x :: s, e)
    in
    split 64 all_links
  in
  let link_json ((u, v), s) =
    let num f = J.float (if Float.is_nan f then 0.0 else f) in
    Printf.sprintf
      "{\"link\":\"%d->%d\",\"count\":%d,\"mean\":%s,\"min\":%s,\"max\":%s}"
      u v s.ls_count (num (link_mean s)) (num (link_min s)) (num (link_max s))
  in
  Printf.sprintf
    "{\"c\":%s,\"p\":%s,\"messages\":%d,\"deliveries\":%d,\"unknown\":%d,\
     \"c_work\":%s,\"p_work\":%s,\"wait\":%s,\
     \"hop\":%s,\"delivery\":%s,\"end_to_end\":%s,\
     \"links\":[%s],\"links_elided\":%d}"
    (J.float t.c) (J.float t.p) t.messages t.deliveries t.unknown
    (J.float t.c_work) (J.float t.p_work) (J.float t.wait)
    (dist_json t.hop) (dist_json t.delivery) (dist_json t.e2e)
    (String.concat "," (List.map link_json shown))
    elided

let pp_dist ppf name h =
  if Histo.count h = 0 then
    Format.fprintf ppf "  %-11s (no samples)@." name
  else
    Format.fprintf ppf
      "  %-11s count %-8d mean %-10.6g p50 %-10.6g p95 %-10.6g p99 %-10.6g max %-10.6g@."
      name (Histo.count h) (Histo.mean h)
      (Histo.quantile h 0.5) (Histo.quantile h 0.95) (Histo.quantile h 0.99)
      (Histo.max_value h)

let pp ppf t =
  Format.fprintf ppf
    "latency (C=%g, P=%g): %d messages, %d deliveries%s@."
    t.c t.p t.messages t.deliveries
    (if t.unknown = 0 then ""
     else Printf.sprintf ", %d orphan events" t.unknown);
  pp_dist ppf "per-hop" t.hop;
  pp_dist ppf "delivery" t.delivery;
  pp_dist ppf "end-to-end" t.e2e;
  Format.fprintf ppf
    "  work/wait    C-work %.6g  P-work %.6g  wait %.6g@."
    t.c_work t.p_work t.wait;
  let ls = links t in
  let shown = List.filteri (fun i _ -> i < 10) ls in
  if shown <> [] then begin
    Format.fprintf ppf "  busiest links:@.";
    List.iter
      (fun ((u, v), s) ->
        Format.fprintf ppf
          "    %6d->%-6d count %-7d mean %-10.6g max %-10.6g@."
          u v s.ls_count (link_mean s) (link_max s))
      shown;
    let rest = List.length ls - List.length shown in
    if rest > 0 then Format.fprintf ppf "    (%d more links)@." rest
  end
