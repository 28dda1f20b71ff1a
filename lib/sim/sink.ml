type t = {
  emit_fn : string -> bool;
  flush_fn : unit -> unit;
  close_fn : unit -> unit;
  mutable emitted : int;
  mutable dropped : int;
  mutable bytes : int;
  mutable closed : bool;
}

let create ?(flush = fun () -> ()) ?(close = fun () -> ()) ~emit () =
  {
    emit_fn = emit;
    flush_fn = flush;
    close_fn = close;
    emitted = 0;
    dropped = 0;
    bytes = 0;
    closed = false;
  }

let emit t line =
  if t.closed then invalid_arg "Sink.emit: sink is closed";
  if t.emit_fn line then begin
    t.emitted <- t.emitted + 1;
    t.bytes <- t.bytes + String.length line + 1;
    true
  end
  else begin
    t.dropped <- t.dropped + 1;
    false
  end

let flush t = if not t.closed then t.flush_fn ()

let close t =
  if not t.closed then begin
    t.flush_fn ();
    t.close_fn ();
    t.closed <- true
  end

let emitted t = t.emitted
let dropped t = t.dropped
let bytes t = t.bytes

(* -- Built-ins --------------------------------------------------------- *)

let buffer buf =
  create
    ~emit:(fun line ->
      Buffer.add_string buf line;
      Buffer.add_char buf '\n';
      true)
    ()

let default_chunk = 65536

(* Accumulate accepted lines in a private buffer and write it to the
   file once it holds at least [chunk_bytes], so memory stays O(chunk)
   whatever the run size and the bytes hitting the file are independent
   of chunk size. *)
let file ?(chunk_bytes = default_chunk) ?max_bytes path =
  if chunk_bytes < 1 then invalid_arg "Sink.file: chunk_bytes must be >= 1";
  let oc = open_out path in
  let buf = Buffer.create (min chunk_bytes default_chunk) in
  let accepted = ref 0 in
  let write_out () =
    if Buffer.length buf > 0 then begin
      Buffer.output_buffer oc buf;
      Buffer.clear buf
    end
  in
  create
    ~emit:(fun line ->
      let cost = String.length line + 1 in
      match max_bytes with
      | Some budget when !accepted + cost > budget -> false
      | _ ->
          accepted := !accepted + cost;
          Buffer.add_string buf line;
          Buffer.add_char buf '\n';
          if Buffer.length buf >= chunk_bytes then write_out ();
          true)
    ~flush:(fun () ->
      write_out ();
      Stdlib.flush oc)
    ~close:(fun () -> close_out oc)
    ()
