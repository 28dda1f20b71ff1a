type t = {
  size : int;
  mutable hops : int;
  mutable syscalls : int;
  mutable sends : int;
  mutable drops : int;
  mutable dropped_in_flight : int;
  mutable max_header : int;
  per_node : int array;
  (* int refs so the steady-state increment is [incr], not a
     remove-and-reinsert that allocates on every system call *)
  by_label : (string, int ref) Hashtbl.t;
  (* the counter of the last label recorded, matched by physical
     equality: a run of same-label syscalls hashes no string *)
  mutable last_label : string;
  mutable last_count : int ref;
}

(* never physically equal to a caller's label *)
let no_label = String.init 1 (fun _ -> '\000')

let create ~n =
  {
    size = n;
    hops = 0;
    syscalls = 0;
    sends = 0;
    drops = 0;
    dropped_in_flight = 0;
    max_header = 0;
    per_node = Array.make n 0;
    by_label = Hashtbl.create 8;
    last_label = no_label;
    last_count = ref 0;
  }

let reset t =
  t.hops <- 0;
  t.syscalls <- 0;
  t.sends <- 0;
  t.drops <- 0;
  t.dropped_in_flight <- 0;
  t.max_header <- 0;
  Array.fill t.per_node 0 t.size 0;
  Hashtbl.reset t.by_label;
  t.last_label <- no_label;
  t.last_count <- ref 0

let n t = t.size
let hops t = t.hops
let syscalls t = t.syscalls
let sends t = t.sends
let drops t = t.drops
let dropped_in_flight t = t.dropped_in_flight
let syscalls_at t v = t.per_node.(v)

let syscalls_labelled t label =
  match Hashtbl.find_opt t.by_label label with Some r -> !r | None -> 0

let max_header t = t.max_header
let record_hop t = t.hops <- t.hops + 1

let record_syscall t ~node ~label =
  t.syscalls <- t.syscalls + 1;
  t.per_node.(node) <- t.per_node.(node) + 1;
  if label == t.last_label then incr t.last_count
  else begin
    let r =
      match Hashtbl.find_opt t.by_label label with
      | Some r -> r
      | None ->
          let r = ref 0 in
          Hashtbl.add t.by_label label r;
          r
    in
    incr r;
    t.last_label <- label;
    t.last_count <- r
  end

let record_send t ~header_len =
  t.sends <- t.sends + 1;
  if header_len > t.max_header then t.max_header <- header_len

let record_drop t = t.drops <- t.drops + 1
let record_dropped_in_flight t = t.dropped_in_flight <- t.dropped_in_flight + 1
