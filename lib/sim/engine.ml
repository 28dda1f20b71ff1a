(* The event queue has three parts.

   The calendar is a ring of [k] FIFO lanes of closures.  An event due
   at a whole-number time [T] with [now <= T < now + k] goes to lane
   [T land (k - 1)]: the [k] whole numbers in that window fall in
   distinct lanes, so a lane holds the events of one instant, and such
   an event costs one ring store and one ring clear, not a heap push and
   pop.  Under the paper's limiting model (C = 0, P = 1) every hop is
   due at the current whole-number instant and every NCU activation one
   unit after it, so nearly all traffic takes the calendar.  [first] in
   the clock record is the time of the earliest non-empty lane, or
   infinity.

   The now-lane is one more FIFO ring, for the events due at the clock
   when the clock is not a whole number.

   The heap is a binary min-heap over (time, seq) for every other event,
   held in three parallel arrays of unboxed data: [times], [seqs] (which
   breaks time ties in scheduling order) and [slots], the index of the
   event's closure in [pool].  Sifting moves no pointers, so it runs no
   write barrier; a closure is stored once when pushed and cleared once
   when popped.  [free] is the stack of unused pool slots.

   Order is (time, seq) exactly.  The next event is the earliest of the
   heap root, the now-lane and the calendar's first lane, and a tie goes
   to the heap root.  A heap entry at time [T] was scheduled while [T]
   was outside the window or the clock was still below it; once [T] is
   inside the window it stays there, since the clock only moves
   forward, so every later event at [T] takes a lane and the heap entry
   precedes it.  A horizon below the clock is the one backward move: it
   flushes every lane into the heap first.  Every lane and pool slot that
   holds no pending event holds [idle], so neither a fired closure nor
   one dropped by [reset] stays reachable from the queue. *)
let idle () = ()

(* Calendar lanes; a power of two.  Four take every activation of a
   broadcast under the limiting model.  Wider windows were measured to
   move the benchmark's maintenance peak heap through GC pacing, not
   retention (DESIGN.md, "The simulator's own cost model"). *)
let k = 4
let window = Float.of_int k

(* All-float record: the clock and the calendar's first time are stored
   unboxed, so advancing either per event allocates nothing. *)
type clock = { mutable now : float; mutable first : float }

(* A FIFO ring: [len] closures from [head], wrapping. *)
type lane = {
  mutable ring : (unit -> unit) array;
  mutable head : int;
  mutable len : int;
}

type t = {
  mutable times : Float.Array.t;
  mutable seqs : int array;
  mutable slots : int array;
  mutable size : int;
  mutable pool : (unit -> unit) array;
  mutable free : int array;  (* [free.(0 .. capacity - size - 1)] *)
  calendar : lane array;  (* [k] lanes *)
  now_lane : lane;
  mutable next_seq : int;
  want : int;  (* capacity hint for the first allocation *)
  clock : clock;
  mutable executed : int;
}

type outcome = Quiescent | Time_limit | Event_limit

let new_lane () = { ring = [||]; head = 0; len = 0 }

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
        calendar = Array.init k (fun _ -> new_lane ());
        now_lane = new_lane ();
        next_seq = 0;
        want = queue_capacity;
        clock = { now = 0.0; first = infinity };
        executed = 0;
      }

let now t = t.clock.now
let events_processed t = t.executed

let pending t =
  Array.fold_left (fun n lane -> n + lane.len) (t.size + t.now_lane.len) t.calendar

(* Every lane is empty exactly when [first] is infinite. *)
let[@inline] is_empty t =
  t.size = 0 && t.now_lane.len = 0 && t.clock.first = infinity

let[@inline] grown t cap = if cap = 0 then max t.want 16 else 2 * cap

(* -- the lanes ---------------------------------------------------------- *)

let grow_lane t lane =
  let cap = Array.length lane.ring in
  let ring = Array.make (grown t cap) idle in
  for i = 0 to lane.len - 1 do
    ring.(i) <- lane.ring.((lane.head + i) mod cap)
  done;
  lane.ring <- ring;
  lane.head <- 0

let lane_push t lane f =
  if lane.len = Array.length lane.ring then grow_lane t lane;
  let cap = Array.length lane.ring in
  let i = lane.head + lane.len in
  Array.unsafe_set lane.ring (if i >= cap then i - cap else i) f;
  lane.len <- lane.len + 1

let[@inline] lane_pop lane =
  let h = lane.head in
  let f = Array.unsafe_get lane.ring h in
  Array.unsafe_set lane.ring h idle;
  lane.head <- (if h + 1 = Array.length lane.ring then 0 else h + 1);
  lane.len <- lane.len - 1;
  f

let clear_lane lane =
  while lane.len > 0 do
    let (_ : unit -> unit) = lane_pop lane in
    ()
  done

(* [T]'s lane, for a whole-number [T] inside the window. *)
let[@inline] calendar_lane t time =
  Array.unsafe_get t.calendar (Float.to_int time land (k - 1))

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
  Array.iter clear_lane t.calendar;
  clear_lane t.now_lane;
  t.next_seq <- 0;
  t.clock.now <- 0.0;
  t.clock.first <- infinity;
  t.executed <- 0

let retire t =
  reset t;
  Domain.DLS.set spare (Some t)

(* [Float.is_integer] without its C call, for the finite times inside
   the window. *)
let[@inline] whole time = Float.of_int (Float.to_int time) = time

(* [not (x >= y)] rather than [x < y]: it also refuses NaN, which
   compares false both ways and would otherwise enter the queue. *)
let schedule_at t ~time f =
  let c = t.clock in
  if not (time >= c.now) then
    invalid_arg
      (if Float.is_nan time then "Engine.schedule_at: time is NaN"
       else
         Printf.sprintf "Engine.schedule_at: time %g is before now %g" time
           c.now);
  if time < c.now +. window && whole time then begin
    lane_push t (calendar_lane t time) f;
    if time < c.first then c.first <- time
  end
  else if time = c.now then lane_push t t.now_lane f
  else push t time f

let schedule t ~delay f =
  if not (delay >= 0.0) then
    invalid_arg
      (if Float.is_nan delay then "Engine.schedule: delay is NaN"
       else "Engine.schedule: negative delay");
  schedule_at t ~time:(t.clock.now +. delay) f

(* The time of the next event; the queue must not be empty. *)
let[@inline] next_time t =
  let c = t.clock in
  if t.now_lane.len > 0 then c.now
  else if t.size > 0 && Float.Array.unsafe_get t.times 0 <= c.first then
    Float.Array.unsafe_get t.times 0
  else c.first

(* Pop the first calendar lane's head, moving the clock to its time.
   When that empties the lane, [first] moves on to the next non-empty
   lane: the window's later whole numbers, in order. *)
let calendar_pop t =
  let c = t.clock in
  let time = c.first in
  c.now <- time;
  let i = Float.to_int time land (k - 1) in
  let lane = Array.unsafe_get t.calendar i in
  let f = lane_pop lane in
  if lane.len = 0 then begin
    let d = ref 1 in
    while !d < k && (Array.unsafe_get t.calendar ((i + !d) land (k - 1))).len = 0 do
      incr d
    done;
    c.first <- (if !d = k then infinity else time +. Float.of_int !d)
  end;
  f

(* Pop and run the next event in (time, seq) order; the queue must not
   be empty.  A tie goes to the heap root. *)
let fire t =
  let c = t.clock in
  let f =
    if t.now_lane.len > 0
       && not (t.size > 0 && Float.Array.unsafe_get t.times 0 = c.now)
    then lane_pop t.now_lane
    else if t.size > 0 && Float.Array.unsafe_get t.times 0 <= c.first then begin
      c.now <- Float.Array.unsafe_get t.times 0;
      pop_root t
    end
    else calendar_pop t
  in
  t.executed <- t.executed + 1;
  f ()

let step t =
  if is_empty t then false
  else begin
    fire t;
    true
  end

(* Before the clock moves back, every lane's events join the heap at
   their own times, earliest first and each lane in FIFO order: behind
   every entry already there at the same time, which was scheduled
   earlier.  The lanes are then empty, so the window may move back. *)
let flush_lanes t =
  let c = t.clock in
  while t.now_lane.len > 0 do
    push t c.now (lane_pop t.now_lane)
  done;
  if c.first < infinity then begin
    for d = 0 to k - 1 do
      let time = c.first +. Float.of_int d in
      let lane = calendar_lane t time in
      while lane.len > 0 do
        push t time (lane_pop lane)
      done
    done;
    c.first <- infinity
  end

(* The next event's time decides the horizon, then one pop executes.
   An empty queue terminates as [Quiescent] before the budget is
   consulted, so a drained queue can never burn the remaining event
   budget into [Event_limit].  A horizon below the clock moves the clock
   back, after the lanes are flushed into the heap. *)
let run ?until ?max_events t =
  let budget = ref (match max_events with None -> max_int | Some m -> m) in
  let horizon = match until with None -> infinity | Some u -> u in
  let rec loop () =
    if is_empty t then Quiescent
    else if !budget <= 0 then Event_limit
    else if next_time t > horizon then begin
      if horizon < t.clock.now then flush_lanes t;
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
