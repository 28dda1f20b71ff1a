(** First-divergence localisation between two traces.

    Determinism contracts (bench [--jobs], chaos jobs-independence)
    and chaos repros previously reported {e that} two executions
    differ; this module reports {e where}: the index of the first
    event at which the two streams disagree, the node it is charged
    to, and the chain of binding causal predecessors — computed over
    an {!Analysis.Event_dag} of the window preceding the divergence —
    that explains what the diverging event was waiting on.

    Both streams are consumed in lockstep, one event resident each,
    plus a bounded ring of the most recent common-prefix events for
    the causal window — memory is O(window), never O(stream). *)

type divergence = {
  index : int;  (** 0-based event index of the first disagreement *)
  baseline : Sim.Trace.event option;
      (** [None]: the baseline stream ended here *)
  candidate : Sim.Trace.event option;
  node : int option;
      (** node the divergent event is charged to (a hop to its
          destination — the critical-path convention) *)
  chain : (int * Analysis.Event_dag.edge_kind * Sim.Trace.event) list;
      (** binding causal predecessors of the divergent event, nearest
          first: (absolute event index, the constraint kind binding it
          to the next element, the event).  Empty when the divergence
          is at index 0 or the windowed DAG finds no predecessor. *)
}

type outcome =
  | Identical of int  (** both streams carry the same [n] events *)
  | Diverged of divergence

val of_seq :
  ?window:int ->
  ?c:float ->
  baseline:Sim.Trace.event Seq.t ->
  Sim.Trace.event Seq.t ->
  outcome
(** [of_seq ~baseline candidate] compares structurally, event by
    event, forcing the baseline's next event and then the candidate's
    and stopping at the first disagreement: neither stream is forced
    past it, and each is traversed once, so ephemeral sequences (a
    live replay, a file being read) are fine.  [window] (default 4096)
    bounds how many common-prefix events the predecessor chain can
    reach back through; [c] is the hop cost used to rank binding
    constraints (default 0, the new model).  Indices, the chain's
    included, count from the start of the streams, whatever the
    window. *)

val of_events :
  ?window:int ->
  ?c:float ->
  baseline:Sim.Trace.event list ->
  Sim.Trace.event list ->
  outcome
(** {!of_seq} over two event lists. *)

val of_files :
  ?window:int -> ?c:float -> baseline:string -> string -> (outcome, string) result
(** {!of_seq} over two schema-v2 JSONL streams; headers, truncation
    and telemetry records are skipped (events only are compared). *)

val report : baseline:string -> candidate:string -> outcome -> string
(** Human-readable multi-line report.  [baseline]/[candidate] name the
    two sides (file paths, "--jobs 1", ...). *)

val to_json : outcome -> string

val exit_code : int
(** Process exit code for a CLI diff that found a divergence: 9. *)
