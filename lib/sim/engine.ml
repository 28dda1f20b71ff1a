(* The event queue has two parts.

   The now-lane is a FIFO ring of the closures due at the current
   instant ([time = now]): a zero-delay event costs one ring store and
   one ring clear, not a heap push and pop.  The paper's free switching
   (C = 0) makes every hop such an event.

   The heap is a binary min-heap over (time, seq) for every later event,
   held in three parallel arrays of unboxed data: [times], [seqs] (which
   breaks time ties in scheduling order) and [slots], the index of the
   event's closure in [pool].  Sifting moves no pointers, so it runs no
   write barrier; a closure is stored once when pushed and cleared once
   when popped.  [free] is the stack of unused pool slots.

   Order is (time, seq) exactly.  Events pop as: the heap root while its
   time is [now], then the lane, then the heap root, which advances the
   clock.  A heap entry at [now] was scheduled before the clock reached
   [now], so it precedes every lane entry, which was scheduled at [now].
   Every lane and pool slot that holds no pending event holds [idle], so
   neither a fired closure nor one dropped by [reset] stays reachable
   from the queue. *)
let idle () = ()

(* All-float record: the clock is stored unboxed, so advancing it per
   event allocates nothing. *)
type clock = { mutable now : float }

type t = {
  mutable times : Float.Array.t;
  mutable seqs : int array;
  mutable slots : int array;
  mutable size : int;
  mutable pool : (unit -> unit) array;
  mutable free : int array;  (* [free.(0 .. capacity - size - 1)] *)
  mutable lane : (unit -> unit) array;
  mutable lane_head : int;
  mutable lane_len : int;
  mutable next_seq : int;
  want : int;  (* capacity hint for the first allocation *)
  clock : clock;
  mutable executed : int;
}

type outcome = Quiescent | Time_limit | Event_limit

(* One retired engine per domain, kept for the next [create] with the
   same hint.  Taking it empties the slot, and so does a [create] with
   another hint, before it allocates: a nested or raising run builds a
   fresh engine, and a spare of another size never outlives the next
   create. *)
let spare : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let create ?(queue_capacity = 0) () =
  if queue_capacity < 0 then invalid_arg "Engine.create: negative queue_capacity";
  let kept = Domain.DLS.get spare in
  Domain.DLS.set spare None;
  match kept with
  | Some t when t.want = queue_capacity -> t
  | _ ->
      {
        times = Float.Array.create 0;
        seqs = [||];
        slots = [||];
        size = 0;
        pool = [||];
        free = [||];
        lane = [||];
        lane_head = 0;
        lane_len = 0;
        next_seq = 0;
        want = queue_capacity;
        clock = { now = 0.0 };
        executed = 0;
      }

let now t = t.clock.now
let events_processed t = t.executed
let pending t = t.size + t.lane_len

let[@inline] grown t cap = if cap = 0 then max t.want 16 else 2 * cap

(* -- the now-lane ------------------------------------------------------- *)

let grow_lane t =
  let cap = Array.length t.lane in
  let lane = Array.make (grown t cap) idle in
  for i = 0 to t.lane_len - 1 do
    lane.(i) <- t.lane.((t.lane_head + i) mod cap)
  done;
  t.lane <- lane;
  t.lane_head <- 0

let lane_push t f =
  if t.lane_len = Array.length t.lane then grow_lane t;
  let cap = Array.length t.lane in
  let i = t.lane_head + t.lane_len in
  Array.unsafe_set t.lane (if i >= cap then i - cap else i) f;
  t.lane_len <- t.lane_len + 1

let[@inline] lane_pop t =
  let h = t.lane_head in
  let f = Array.unsafe_get t.lane h in
  Array.unsafe_set t.lane h idle;
  t.lane_head <- (if h + 1 = Array.length t.lane then 0 else h + 1);
  t.lane_len <- t.lane_len - 1;
  f

(* -- the heap ----------------------------------------------------------- *)

(* Called when every slot is in use, so the fresh slots are exactly
   [cap .. fresh - 1]; they go on the stack lowest on top. *)
let grow t =
  let cap = Array.length t.slots in
  let fresh = grown t cap in
  let times = Float.Array.create fresh in
  Float.Array.blit t.times 0 times 0 t.size;
  let seqs = Array.make fresh 0 in
  Array.blit t.seqs 0 seqs 0 t.size;
  let slots = Array.make fresh 0 in
  Array.blit t.slots 0 slots 0 t.size;
  let pool = Array.make fresh idle in
  Array.blit t.pool 0 pool 0 cap;
  t.times <- times;
  t.seqs <- seqs;
  t.slots <- slots;
  t.pool <- pool;
  t.free <- Array.init fresh (fun i -> fresh - 1 - i)

let[@inline] place t i time seq slot =
  Float.Array.unsafe_set t.times i time;
  Array.unsafe_set t.seqs i seq;
  Array.unsafe_set t.slots i slot

let[@inline] move t ~src ~dst =
  place t dst (Float.Array.unsafe_get t.times src) (Array.unsafe_get t.seqs src)
    (Array.unsafe_get t.slots src)

(* Store the closure in a free slot, then sift a hole up from the new
   leaf.  The new entry's seq exceeds every queued one, so it only
   passes parents with a strictly later time. *)
let push t time f =
  if t.size = Array.length t.slots then grow t;
  let slot = Array.unsafe_get t.free (Array.length t.slots - t.size - 1) in
  Array.unsafe_set t.pool slot f;
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
  place t !i time seq slot

(* Clear a popped or dropped closure's slot and return it to the stack. *)
let[@inline] release t slot =
  Array.unsafe_set t.pool slot idle;
  Array.unsafe_set t.free (Array.length t.slots - t.size) slot

(* Entry [i] pops before the key (time, seq). *)
let[@inline] before t i (time : float) seq =
  let ti = Float.Array.unsafe_get t.times i in
  ti < time || (ti = time && Array.unsafe_get t.seqs i < seq)

(* Remove and return the root's closure: the last entry fills a hole
   sifted down from the root. *)
let pop_root t =
  let root = Array.unsafe_get t.slots 0 in
  let f = Array.unsafe_get t.pool root in
  release t root;
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then begin
    let time = Float.Array.unsafe_get t.times last in
    let seq = Array.unsafe_get t.seqs last in
    let slot = Array.unsafe_get t.slots last in
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
    place t !i time seq slot
  end;
  f

(* -- the engine --------------------------------------------------------- *)

let reset t =
  while t.size > 0 do
    release t (Array.unsafe_get t.slots (t.size - 1));
    t.size <- t.size - 1
  done;
  Array.fill t.lane 0 (Array.length t.lane) idle;
  t.lane_len <- 0;
  t.next_seq <- 0;
  t.clock.now <- 0.0;
  t.executed <- 0

let retire t =
  reset t;
  Domain.DLS.set spare (Some t)

(* [not (x >= y)] rather than [x < y]: it also refuses NaN, which
   compares false both ways and would otherwise enter the queue. *)
let schedule_at t ~time f =
  if not (time >= t.clock.now) then
    invalid_arg
      (if Float.is_nan time then "Engine.schedule_at: time is NaN"
       else
         Printf.sprintf "Engine.schedule_at: time %g is before now %g" time
           t.clock.now);
  if time = t.clock.now then lane_push t f else push t time f

let schedule t ~delay f =
  if not (delay >= 0.0) then
    invalid_arg
      (if Float.is_nan delay then "Engine.schedule: delay is NaN"
       else "Engine.schedule: negative delay");
  schedule_at t ~time:(t.clock.now +. delay) f

(* The time of the next event; the queue must not be empty. *)
let[@inline] next_time t =
  if t.lane_len > 0 then t.clock.now else Float.Array.unsafe_get t.times 0

(* Pop and run the next event in (time, seq) order; the queue must not
   be empty. *)
let fire t =
  let f =
    if t.lane_len > 0
       && not (t.size > 0 && Float.Array.unsafe_get t.times 0 = t.clock.now)
    then lane_pop t
    else begin
      t.clock.now <- Float.Array.unsafe_get t.times 0;
      pop_root t
    end
  in
  t.executed <- t.executed + 1;
  f ()

let step t =
  if pending t = 0 then false
  else begin
    fire t;
    true
  end

(* The next event's time decides the horizon, then one pop executes.
   An empty queue terminates as [Quiescent] before the budget is
   consulted, so a drained queue can never burn the remaining event
   budget into [Event_limit].  A horizon below the clock moves the clock
   back; the lane's events, due at the old clock, then join the heap
   behind every entry already there, keeping their order. *)
let run ?until ?max_events t =
  let budget = ref (match max_events with None -> max_int | Some m -> m) in
  let horizon = match until with None -> infinity | Some u -> u in
  let rec loop () =
    if pending t = 0 then Quiescent
    else if !budget <= 0 then Event_limit
    else if next_time t > horizon then begin
      while t.lane_len > 0 do
        push t t.clock.now (lane_pop t)
      done;
      t.clock.now <- horizon;
      Time_limit
    end
    else begin
      decr budget;
      fire t;
      loop ()
    end
  in
  loop ()
