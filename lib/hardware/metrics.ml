type t = {
  size : int;
  mutable hops : int;
  mutable syscalls : int;
  mutable sends : int;
  mutable drops : int;
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
    max_header = 0;
    per_node = Array.make n 0;
    by_label = Hashtbl.create 8;
    last_label = no_label;
    last_count = ref 0;
  }

let n t = t.size
let hops t = t.hops
let syscalls t = t.syscalls
let sends t = t.sends
let drops t = t.drops
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

let copy_labels by_label =
  let fresh = Hashtbl.create (Hashtbl.length by_label) in
  Hashtbl.iter (fun label r -> Hashtbl.replace fresh label (ref !r)) by_label;
  fresh

let snapshot t =
  {
    size = t.size;
    hops = t.hops;
    syscalls = t.syscalls;
    sends = t.sends;
    drops = t.drops;
    max_header = t.max_header;
    per_node = Array.copy t.per_node;
    by_label = copy_labels t.by_label;
    last_label = no_label;
    last_count = ref 0;
  }

let diff later earlier =
  if later.size <> earlier.size then invalid_arg "Metrics.diff: size mismatch";
  let by_label = copy_labels later.by_label in
  Hashtbl.iter
    (fun label count ->
      match Hashtbl.find_opt by_label label with
      | Some r -> r := !r - !count
      | None -> Hashtbl.replace by_label label (ref (- !count)))
    earlier.by_label;
  {
    size = later.size;
    hops = later.hops - earlier.hops;
    syscalls = later.syscalls - earlier.syscalls;
    sends = later.sends - earlier.sends;
    drops = later.drops - earlier.drops;
    (* max_header only ever grows, so if [later] exceeds [earlier] the
       interval provably witnessed exactly that maximum; otherwise the
       interval set no new maximum and 0 is the honest answer — the old
       behaviour reported [later.max_header] even for an empty interval *)
    max_header =
      (if later.max_header > earlier.max_header then later.max_header else 0);
    per_node = Array.init later.size (fun i -> later.per_node.(i) - earlier.per_node.(i));
    by_label;
    last_label = no_label;
    last_count = ref 0;
  }

let pp ?(by_label = false) ?(per_node = false) ppf t =
  Format.fprintf ppf "hops=%d syscalls=%d sends=%d drops=%d max_header=%d"
    t.hops t.syscalls t.sends t.drops t.max_header;
  if by_label then begin
    let labels =
      List.sort
        (fun (a, _) (b, _) -> String.compare a b)
        (Hashtbl.fold (fun l r acc -> (l, !r) :: acc) t.by_label [])
    in
    List.iter
      (fun (label, count) -> Format.fprintf ppf "@ %s=%d" label count)
      labels
  end;
  if per_node then
    Array.iteri
      (fun v c -> if c <> 0 then Format.fprintf ppf "@ node%d=%d" v c)
      t.per_node
