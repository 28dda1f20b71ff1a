type t = {
  backoff : Sim.Timer.backoff;
  max_retries : int;
  seed : int;
}

(* The base timeout must comfortably exceed a fault-free completion:
   under the paper's model a broadcast or tour round trip is O(n)
   NCU-serialised work (n-1 acks absorbed one software delay apiece at
   the root is the worst term), so Θ(n) with headroom; the +64 floor
   keeps small networks' timeouts past the chaos quiescence horizon so
   the first retry already lands on the healed graph. *)
let default ~n =
  let base = 64.0 +. (4.0 *. float_of_int (max 1 n)) in
  {
    backoff =
      Sim.Timer.backoff ~base ~factor:2.0 ~cap:(16.0 *. base) ~jitter:0.25 ();
    max_retries = 8;
    seed = 0x5eed;
  }

let streams t ~n = Sim.Rng.split_n (Sim.Rng.create ~seed:t.seed) n
let stream t v = Sim.Rng.split_nth (Sim.Rng.create ~seed:t.seed) v

let delay t ~rng ~attempt =
  Sim.Timer.backoff_delay t.backoff ~rng:(Some rng) ~attempt

type obs = {
  r_timeouts : Registry.counter;
  r_retransmits : Registry.counter;
  r_restarts : Registry.counter;
  r_resumes : Registry.counter;
  r_acks : Registry.counter;
  r_give_ups : Registry.counter;
  r_backoff : Registry.histogram;
}

let backoff_buckets = [| 1.0; 4.0; 16.0; 64.0; 256.0; 1024.0; 4096.0; 16384.0 |]

let obs registry =
  match registry with
  | Some r when Registry.enabled r ->
      Some
        {
          r_timeouts =
            Registry.counter r "recover.timeouts"
              ~help:"watchdog expiries acted upon";
          r_retransmits =
            Registry.counter r "recover.retransmits"
              ~help:"broadcast retransmissions";
          r_restarts =
            Registry.counter r "recover.restarts"
              ~help:"election epoch restarts";
          r_resumes =
            Registry.counter r "recover.resumes"
              ~help:"maintenance rounds resumed on node recovery";
          r_acks =
            Registry.counter r "recover.acks"
              ~help:"delivery acknowledgements received";
          r_give_ups =
            Registry.counter r "recover.give_ups"
              ~help:"retry budgets exhausted";
          r_backoff =
            Registry.histogram r "recover.backoff_delay"
              ~help:"chosen backoff delays" ~buckets:backoff_buckets;
        }
  | _ -> None

type tally = {
  mutable timeouts : int;
  mutable retransmits : int;
  mutable restarts : int;
  mutable resumes : int;
  mutable acks : int;
  mutable give_ups : int;
}

let tally () =
  {
    timeouts = 0;
    retransmits = 0;
    restarts = 0;
    resumes = 0;
    acks = 0;
    give_ups = 0;
  }

let publish obs t =
  match obs with
  | Some o ->
      Registry.add o.r_timeouts t.timeouts;
      Registry.add o.r_retransmits t.retransmits;
      Registry.add o.r_restarts t.restarts;
      Registry.add o.r_resumes t.resumes;
      Registry.add o.r_acks t.acks;
      Registry.add o.r_give_ups t.give_ups
  | None -> ()
