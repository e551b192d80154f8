(** Structured execution tracing: a causal event journal over the
    shared-memory access stream.

    [Pram.Driver] answers "how many accesses" on the simulator; this
    module answers "which accesses, in what order, belonging to which
    operation" for {e one} execution, on every backend — the one
    consumer of the access stream.  A {!Journal} records a totally
    ordered sequence of events — atomic accesses (fed from
    {!Pram.Driver}'s [?observer] on the simulator, or from the
    [Runtime.Instrument] wrapper over the seqlock registers on domains
    that [Runtime.run_domains] spawned), operation {!Invoke} /
    {!Response} spans, free-form {!Annotate} marks (e.g. ["round 3"],
    ["linearization point"]) and {!Crash} events — and renders it two
    ways:

    - {!pp_timeline}: a per-process ASCII timeline, one column per pid;
    - {!save}: the Chrome trace-event archive, viewable in Perfetto /
      [chrome://tracing] (one track per pid, spans as duration events,
      accesses as instants with the register in [args]) and read back by
      {!parse}, so a saved simulator trace can be reloaded and its
      schedule replayed to a byte-identical re-export.

    Everything is {e off by default}: no journal attached means no
    events, no allocation, no extra accesses — algorithms reach the
    journal only through [Runtime.Ctx], whose journal-less path is
    free. *)

type event_kind =
  | Access of { kind : Pram.Trace.kind; reg_id : int; reg_name : string }
      (** one fired atomic read or write — one step of the cost model *)
  | Invoke of string  (** an operation span opens (label, e.g. ["scan"]) *)
  | Response of string  (** the matching span closes *)
  | Annotate of string  (** a free-form mark inside the execution *)
  | Crash  (** the process was crashed by the scheduler *)

type event = {
  seq : int;  (** journal order, from 0 *)
  pid : int;  (** process the event belongs to *)
  time : int;
      (** [`Logical] clock: equals [seq] (deterministic, replayable);
          [`Monotonic] clock: nanoseconds since journal creation, read
          from [Monotonic_clock.now] under the journal lock, so
          non-decreasing in [seq] order *)
  ev : event_kind;
}

type clock =
  [ `Logical  (** time = seq; the replay-deterministic simulator clock *)
  | `Monotonic  (** wall-clock nanoseconds, monotonic; for domains *) ]

module Journal : sig
  type t
  (** A mutable, mutex-protected event journal (safe under domains). *)

  (** [create ~procs ()] accepts events for pids [0..procs-1].
      @raise Invalid_argument if [procs <= 0]. *)
  val create : ?clock:clock -> procs:int -> unit -> t

  val clock : t -> clock
  val length : t -> int

  (** Events in journal (seq) order. *)
  val events : t -> event list

  (** Raw feeds.  Each stamps the next [seq] and a timestamp.
      @raise Invalid_argument if [pid] is out of range. *)
  val access :
    t -> pid:int -> kind:Pram.Trace.kind -> reg_id:int -> reg_name:string ->
    unit

  val invoke : t -> pid:int -> string -> unit
  val response : t -> pid:int -> string -> unit
  val annotate : t -> pid:int -> string -> unit
  val crash : t -> pid:int -> unit

  (** [with_span t ~pid ~op f] brackets [f ()] with {!Invoke} and
      {!Response} events for [op] (the response is recorded even if [f]
      raises). *)
  val with_span : t -> pid:int -> op:string -> (unit -> 'a) -> 'a

  (** The streaming hook for [Pram.Driver.create ?observer]: one
      {!Access} event per fired step, in firing order. *)
  val observer : t -> Pram.Trace.access -> unit
end

(** A self-contained, serializable trace: the journal's events plus the
    encoded schedule that produced them (empty for native runs, where
    there is no schedule to replay). *)
type archive = {
  a_procs : int;
  a_clock : clock;
  a_schedule : int list;
      (** encoded actions, {!Pram.Explore} convention: [p] steps
          process [p], [-1 - p] crashes it *)
  a_events : event list;
}

(** Snapshot a journal into an archive. *)
val archive : ?schedule:int list -> Journal.t -> archive

(** {2 Renderer 1: per-pid ASCII timeline} *)

(** One row per event, one column per pid; reads/writes/crashes/spans
    are marked in the acting process's column. *)
val pp_timeline : Format.formatter -> archive -> unit

val timeline : archive -> string

(** {2 Renderer 2: the Chrome trace-event archive}

    The [{"traceEvents": [...]}] object of the Trace Event format: one
    thread track per pid (metadata events name them [p0..]), spans as
    [B]/[E] duration events, accesses and annotations as thread-scoped
    instants with register identity in [args].  Timestamps are [time]
    for [`Logical] journals (one step = 1us) and [time / 1000] (ns ->
    us) for [`Monotonic] ones.  A top-level ["otherData"] member, which
    trace viewers ignore, holds the process count, the clock and the
    encoded schedule.  Written through [Json.to_string], one event per
    line.

    {!parse} is an exact inverse of {!save} on archives whose events
    carry [seq] = their position (every journal's): [parse (save a) =
    Ok a], monotonic times to the nanosecond — so on the simulator,
    [save -> load -> replay schedule -> save] is byte-identical. *)
val save : archive -> string

val write_file : path:string -> archive -> unit
val parse : string -> (archive, string) result
val load_file : path:string -> (archive, string) result
