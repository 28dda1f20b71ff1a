(* [live] is false only for instruments of a disabled registry: their
   handles are inert, mirroring Sim.Trace.disabled *)
type counter = { mutable count : int; live : bool }
type gauge = { mutable value : float; glive : bool }

type histogram = {
  bounds : float array;  (* strictly increasing upper bounds *)
  bins : int array;  (* length bounds + 1; last bin is +inf *)
  mutable total : int;
  mutable sum : float;
  hlive : bool;
}

type instrument =
  | Counter of counter * string
  | Gauge of gauge * string
  | Histogram of histogram * string

type t = {
  instruments : (string, instrument) Hashtbl.t;
  is_enabled : bool;
}

let create () = { instruments = Hashtbl.create 16; is_enabled = true }
let disabled () = { instruments = Hashtbl.create 1; is_enabled = false }
let enabled t = t.is_enabled

let register t name make describe =
  match Hashtbl.find_opt t.instruments name with
  | Some existing -> (
      match describe existing with
      | Some i -> i
      | None ->
          invalid_arg
            (Printf.sprintf "Registry: %S already registered as another kind"
               name))
  | None ->
      let fresh = make () in
      Hashtbl.replace t.instruments name fresh;
      match describe fresh with Some i -> i | None -> assert false

let counter t ?(help = "") name =
  register t name
    (fun () -> Counter ({ count = 0; live = t.is_enabled }, help))
    (function Counter (c, _) -> Some c | _ -> None)

let gauge t ?(help = "") name =
  register t name
    (fun () -> Gauge ({ value = 0.0; glive = t.is_enabled }, help))
    (function Gauge (g, _) -> Some g | _ -> None)

let histogram t ?(help = "") ~buckets name =
  if Array.length buckets = 0 then
    invalid_arg "Registry.histogram: buckets must be non-empty";
  Array.iteri
    (fun i b ->
      if i > 0 && buckets.(i - 1) >= b then
        invalid_arg "Registry.histogram: buckets must be strictly increasing")
    buckets;
  register t name
    (fun () ->
      Histogram
        ( {
            bounds = Array.copy buckets;
            bins = Array.make (Array.length buckets + 1) 0;
            total = 0;
            sum = 0.0;
            hlive = t.is_enabled;
          },
          help ))
    (function Histogram (h, _) -> Some h | _ -> None)

let incr c = if c.live then c.count <- c.count + 1
let add c d = if c.live then c.count <- c.count + d
let set g v = if g.glive then g.value <- v

let observe h v =
  if h.hlive then begin
    (* linear scan: bucket arrays are small (≤ ~16) and fixed *)
    let n = Array.length h.bounds in
    let rec bin i =
      if i >= n then n else if v <= h.bounds.(i) then i else bin (i + 1)
    in
    let i = bin 0 in
    h.bins.(i) <- h.bins.(i) + 1;
    h.total <- h.total + 1;
    h.sum <- h.sum +. v
  end

let counter_value c = c.count
let gauge_value g = g.value
let histogram_count h = h.total
let histogram_sum h = h.sum

let histogram_buckets h =
  List.init
    (Array.length h.bins)
    (fun i ->
      let bound =
        if i < Array.length h.bounds then h.bounds.(i) else infinity
      in
      (bound, h.bins.(i)))

let find_counter t name =
  match Hashtbl.find_opt t.instruments name with
  | Some (Counter (c, _)) -> Some c
  | _ -> None

let find_gauge t name =
  match Hashtbl.find_opt t.instruments name with
  | Some (Gauge (g, _)) -> Some g
  | _ -> None

let find_histogram t name =
  match Hashtbl.find_opt t.instruments name with
  | Some (Histogram (h, _)) -> Some h
  | _ -> None

let merge ~into src =
  if into.is_enabled then
    (* walk the source sorted by name so registration order in [into]
       is deterministic regardless of hashtable iteration order *)
    List.iter
      (fun (name, i) ->
        match i with
        | Counter (c, help) -> add (counter into ~help name) c.count
        | Gauge (g, help) ->
            let dst = gauge into ~help name in
            (* the only order-independent combine without timestamps:
               a merged gauge reports the peak across replicas *)
            dst.value <- Float.max dst.value g.value
        | Histogram (h, help) ->
            let dst = histogram into ~help ~buckets:h.bounds name in
            if dst.bounds <> h.bounds then
              invalid_arg
                (Printf.sprintf "Registry.merge: %S bucket bounds differ" name);
            Array.iteri
              (fun b count -> dst.bins.(b) <- dst.bins.(b) + count)
              h.bins;
            dst.total <- dst.total + h.total;
            dst.sum <- dst.sum +. h.sum)
      (List.sort
         (fun (a, _) (b, _) -> String.compare a b)
         (Hashtbl.fold (fun name i acc -> (name, i) :: acc) src.instruments []))

let clear t =
  Hashtbl.iter
    (fun _ i ->
      match i with
      | Counter (c, _) -> c.count <- 0
      | Gauge (g, _) -> g.value <- 0.0
      | Histogram (h, _) ->
          Array.fill h.bins 0 (Array.length h.bins) 0;
          h.total <- 0;
          h.sum <- 0.0)
    t.instruments

let sorted t =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun name i acc -> (name, i) :: acc) t.instruments [])

module J = Sim.Json

let pp_summary ppf t =
  let rows = sorted t in
  if rows = [] then Format.fprintf ppf "(registry empty)@."
  else begin
    List.iter
      (fun (name, i) ->
        match i with
        | Counter (c, _) -> Format.fprintf ppf "%-28s %12d@." name c.count
        | Gauge (g, _) ->
            Format.fprintf ppf "%-28s %12s@." name (J.float g.value)
        | Histogram (h, _) ->
            let mean = if h.total = 0 then 0.0 else h.sum /. float_of_int h.total in
            Format.fprintf ppf "%-28s %12d  sum=%s mean=%s@." name h.total
              (J.float h.sum) (J.float mean);
            List.iter
              (fun (bound, count) ->
                if count > 0 then
                  if bound = infinity then
                    Format.fprintf ppf "  %-26s %12d@." "le=+inf" count
                  else
                    Format.fprintf ppf "  le=%-23s %12d@." (J.float bound)
                      count)
              (histogram_buckets h))
      rows
  end

let to_json t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{";
  let first = ref true in
  List.iter
    (fun (name, i) ->
      if !first then first := false else Buffer.add_string buf ",";
      Buffer.add_string buf (Printf.sprintf "\n  %s: " (J.string name));
      (match i with
      | Counter (c, _) ->
          Buffer.add_string buf
            (Printf.sprintf {|{"kind":"counter","value":%d}|} c.count)
      | Gauge (g, _) ->
          Buffer.add_string buf
            (Printf.sprintf {|{"kind":"gauge","value":%s}|} (J.float g.value))
      | Histogram (h, _) ->
          Buffer.add_string buf
            (Printf.sprintf {|{"kind":"histogram","count":%d,"sum":%s,"buckets":[|}
               h.total (J.float h.sum));
          List.iteri
            (fun i (bound, count) ->
              if i > 0 then Buffer.add_string buf ",";
              let le =
                if bound = infinity then {|"+inf"|} else J.float bound
              in
              Buffer.add_string buf
                (Printf.sprintf {|{"le":%s,"count":%d}|} le count))
            (histogram_buckets h);
          Buffer.add_string buf "]}"))
    (sorted t);
  Buffer.add_string buf "\n}\n";
  Buffer.contents buf
