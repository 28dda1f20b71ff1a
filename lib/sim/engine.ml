(* The event queue is a binary min-heap over (time, seq) held in three
   parallel arrays, so an event costs its closure and nothing else: no
   entry record, no boxed priority.  [seqs] breaks time ties in
   scheduling order (FIFO).  Every slot at or past [size] holds [idle],
   so neither a fired closure nor one dropped by [reset] stays
   reachable from the queue. *)
let idle () = ()

(* All-float record: the clock is stored unboxed, so advancing it per
   event allocates nothing. *)
type clock = { mutable now : float }

type t = {
  mutable times : Float.Array.t;
  mutable seqs : int array;
  mutable slots : (unit -> unit) array;
  mutable size : int;
  mutable next_seq : int;
  want : int;  (* capacity hint for the first allocation *)
  clock : clock;
  mutable executed : int;
}

type outcome = Quiescent | Time_limit | Event_limit

let create ?(queue_capacity = 0) () =
  if queue_capacity < 0 then invalid_arg "Engine.create: negative queue_capacity";
  {
    times = Float.Array.create 0;
    seqs = [||];
    slots = [||];
    size = 0;
    next_seq = 0;
    want = queue_capacity;
    clock = { now = 0.0 };
    executed = 0;
  }

let now t = t.clock.now
let events_processed t = t.executed
let pending t = t.size

let reset t =
  Array.fill t.slots 0 t.size idle;
  t.size <- 0;
  t.next_seq <- 0;
  t.clock.now <- 0.0;
  t.executed <- 0

let grow t =
  let cap = Array.length t.slots in
  let fresh = if cap = 0 then max t.want 16 else 2 * cap in
  let times = Float.Array.create fresh in
  Float.Array.blit t.times 0 times 0 t.size;
  let seqs = Array.make fresh 0 in
  Array.blit t.seqs 0 seqs 0 t.size;
  let slots = Array.make fresh idle in
  Array.blit t.slots 0 slots 0 t.size;
  t.times <- times;
  t.seqs <- seqs;
  t.slots <- slots

let[@inline] place t i time seq f =
  Float.Array.unsafe_set t.times i time;
  Array.unsafe_set t.seqs i seq;
  Array.unsafe_set t.slots i f

let[@inline] move t ~src ~dst =
  place t dst (Float.Array.unsafe_get t.times src) (Array.unsafe_get t.seqs src)
    (Array.unsafe_get t.slots src)

(* Sift a hole up from the new leaf.  The new entry's seq exceeds every
   queued one, so it only passes parents with a strictly later time. *)
let push t time f =
  if t.size = Array.length t.slots then grow t;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let i = ref t.size in
  t.size <- t.size + 1;
  while
    !i > 0
    &&
    let parent = (!i - 1) / 2 in
    time < Float.Array.unsafe_get t.times parent
  do
    let parent = (!i - 1) / 2 in
    move t ~src:parent ~dst:!i;
    i := parent
  done;
  place t !i time seq f

(* Entry [i] pops before the key (time, seq). *)
let[@inline] before t i (time : float) seq =
  let ti = Float.Array.unsafe_get t.times i in
  ti < time || (ti = time && Array.unsafe_get t.seqs i < seq)

(* Remove and return the root's closure: the last entry fills a hole
   sifted down from the root, and its old slot is cleared. *)
let pop_root t =
  let f = Array.unsafe_get t.slots 0 in
  let last = t.size - 1 in
  t.size <- last;
  let time = Float.Array.unsafe_get t.times last in
  let seq = Array.unsafe_get t.seqs last in
  let g = Array.unsafe_get t.slots last in
  Array.unsafe_set t.slots last idle;
  if last > 0 then begin
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= last then continue := false
      else begin
        let r = l + 1 in
        let c =
          if r < last && before t r (Float.Array.unsafe_get t.times l)
               (Array.unsafe_get t.seqs l)
          then r
          else l
        in
        if before t c time seq then begin
          move t ~src:c ~dst:!i;
          i := c
        end
        else continue := false
      end
    done;
    place t !i time seq g
  end;
  f

(* [not (x >= y)] rather than [x < y]: it also refuses NaN, which
   compares false both ways and would otherwise enter the queue. *)
let schedule_at t ~time f =
  if not (time >= t.clock.now) then
    invalid_arg
      (if Float.is_nan time then "Engine.schedule_at: time is NaN"
       else
         Printf.sprintf "Engine.schedule_at: time %g is before now %g" time
           t.clock.now);
  push t time f

let schedule t ~delay f =
  if not (delay >= 0.0) then
    invalid_arg
      (if Float.is_nan delay then "Engine.schedule: delay is NaN"
       else "Engine.schedule: negative delay");
  schedule_at t ~time:(t.clock.now +. delay) f

let[@inline] fire t time =
  let f = pop_root t in
  t.clock.now <- time;
  t.executed <- t.executed + 1;
  f ()

let step t =
  if t.size = 0 then false
  else begin
    fire t (Float.Array.unsafe_get t.times 0);
    true
  end

(* The root's time decides the horizon, then one pop executes.  An
   empty queue terminates as [Quiescent] before the budget is
   consulted, so a drained queue can never burn the remaining event
   budget into [Event_limit]. *)
let run ?until ?max_events t =
  let budget = ref (match max_events with None -> max_int | Some m -> m) in
  let horizon = match until with None -> infinity | Some u -> u in
  let rec loop () =
    if t.size = 0 then Quiescent
    else if !budget <= 0 then Event_limit
    else
      let time = Float.Array.unsafe_get t.times 0 in
      if time > horizon then begin
        t.clock.now <- horizon;
        Time_limit
      end
      else begin
        decr budget;
        fire t time;
        loop ()
      end
  in
  loop ()
