type t = {
  engine : Engine.t;
  mutable generation : int;  (* bumped on every arm/cancel *)
  mutable armed : bool;
}

let create engine = { engine; generation = 0; armed = false }

let arm t ~delay f =
  t.generation <- t.generation + 1;
  t.armed <- true;
  let gen = t.generation in
  Engine.schedule t.engine ~delay (fun () ->
      (* A superseded or cancelled arming leaves this event queued (in
         the heap or a lane); the generation check turns it into a no-op
         so cancellation is O(1) and never perturbs the order other
         events see. *)
      if t.armed && t.generation = gen then begin
        t.armed <- false;
        f ()
      end)

let cancel t =
  t.generation <- t.generation + 1;
  t.armed <- false

type backoff = { base : float; factor : float; cap : float; jitter : float }

let backoff ?(base = 1.0) ?(factor = 2.0) ?(cap = 64.0) ?(jitter = 0.0) () =
  if base <= 0.0 then invalid_arg "Timer.backoff: base must be positive";
  if factor < 1.0 then invalid_arg "Timer.backoff: factor must be >= 1";
  if cap < base then invalid_arg "Timer.backoff: cap must be >= base";
  if jitter < 0.0 || jitter >= 1.0 then
    invalid_arg "Timer.backoff: jitter must be in [0, 1)";
  { base; factor; cap; jitter }

let backoff_delay b ~rng ~attempt =
  if attempt < 0 then invalid_arg "Timer.backoff_delay: negative attempt";
  let raw = b.base *. (b.factor ** float_of_int attempt) in
  let clamped = Float.min raw b.cap in
  if b.jitter > 0.0 then
    match rng with
    | Some r -> clamped *. (1.0 +. Rng.float r b.jitter)
    | None -> clamped
  else clamped
