(** Per-process execution contexts: one object for pid, observability
    and randomness, and the one way to put processes on domains.

    The asynchronous PRAM model is "a process with an identity executing
    against a memory".  Before this module, that identity and its
    cross-cutting companions were threaded by hand through every layer:
    [pid:int] on each call, [?journal] optionals per traced operation,
    per-pid RNG memoized in [Workload].  {!Ctx} bundles them: construct one context
    per process at session start, mint an algorithm {e handle} from it
    ([X.attach obj ctx]), and every subsequent operation call carries no
    cross-cutting arguments.

    Five design rules hold throughout:

    - {b Off by default is free}: a context with no sink performs no
      accesses and allocates nothing on any instrumentation path (the
      Gc-measured test in [test_tracing] pins this down).
    - {b One pid authority}: a single domain-local {!set_pid} attributes
      both the journal's native feed and the seqlock-retry hook.
    - {b One observer feed}: the tracing journal is the one consumer of
      the access stream, whether it originates from the simulator
      driver ({!Sink.observer}) or from a wrapped backend
      ({!Instrument}).  Counting needs no observer on the simulator:
      [Pram.Driver] meters every fired access itself.
    - {b One reporting surface}: algorithms observe only through their
      {!Ctx} — spans, annotations and mechanical causes
      ({!Ctx.cause}) — and never hold a journal or counter grid of
      their own.
    - {b One native path}: {!run_domains} is the only harness that puts
      processes on domains, and instrumented runs wrap the same
      production seqlock registers ({!Instrument} over
      [Pram.Native.Versioned]) that timing runs use bare. *)

(** {1 Pid attribution} *)

(** Set the calling domain's pid for {!Instrument} attribution (default
    0).  {!run_domains} sets it in each domain it spawns, so only a
    sequential instrumented run (one pid after another on one domain)
    calls it.  Simulator code never needs it: fibers share one domain,
    and the driver observer attributes by firing schedule instead. *)
val set_pid : int -> unit

(** {1 Deterministic randomness} *)

module Rng : sig
  (** [state ~seed ~pid] is the deterministic per-process random state:
      a pure function of [(seed, pid)], so workloads are reproducible
      regardless of the order in which harnesses visit pids.  (This is
      the formula [Workload] has always used; it lives here so contexts
      and workload scripts draw from the same stream definition.) *)
  val state : seed:int -> pid:int -> Random.State.t
end

(** {1 The unified observer sink} *)

(** The observers of a session: a tracing journal and a
    contention-counter grid, each optional.  The journal consumes the
    shared-memory access stream (through {!Sink.observer} on the
    simulator, {!Instrument} on other backends); the grid counts the
    mechanical causes algorithms report through {!Ctx.cause}. *)
module Sink : sig
  type t

  (** The empty sink: observing nothing, costing nothing. *)
  val none : t

  val make :
    ?journal:Tracing.Journal.t -> ?telemetry:Telemetry.Counters.t -> unit -> t

  (** The streaming hook for [Pram.Driver.create ?observer]: [None]
      without a journal (so an observer-less driver stays on its free
      path), otherwise the journal's feed. *)
  val observer : t -> (Pram.Trace.access -> unit) option
end

(** [Instrument (M) (S)] is backend [M] with every completed access fed
    to [S.sink]'s journal, attributed to the calling domain's pid.  Use
    it over [Memory.Direct_v] or [Native.Versioned]; under
    [Memory.Sim_v] prefer the driver observer (hooks fire at invocation,
    not firing, time).  Register creation feeds nothing: a test that
    counts registers stacks its own [Memory.Hooked] with an [on_create]
    counter. *)
module Instrument (M : Pram.Memory.VERSIONED) (S : sig
  val sink : Sink.t
end) : Pram.Memory.VERSIONED

(** {1 The per-process context} *)

module Ctx : sig
  type t

  (** [make ~procs ~pid ()] builds the context process [pid] carries for
      a session among [procs] processes.  [sink] defaults to
      {!Sink.none} (instrumentation off, zero overhead); [seed] defaults
      to [0] and determines {!rng}.
      @raise Invalid_argument
        if [procs <= 0], [pid] is out of range, or the sink's telemetry
        grid has fewer than [procs] pids. *)
  val make : ?sink:Sink.t -> ?seed:int -> procs:int -> pid:int -> unit -> t

  val pid : t -> int

  (** The sink's contention-counter grid, if any — for attach-time
      checks of its shape (e.g. [Store.attach]'s families). *)
  val telemetry : t -> Telemetry.Counters.t option

  (** Fixed at {!make}: whether the sink has a journal.  Without one,
      {!span} only calls its body, so a caller may skip building the
      closure, and an annotation's text need not be built. *)
  val traced : t -> bool

  (** This process's deterministic random state: {!Rng.state} on
      [(seed, pid)], built lazily and cached, so contexts that never
      draw randomness allocate no state. *)
  val rng : t -> Random.State.t

  (** [family ~procs ()] is one context per pid, sharing one sink and
      seed — the common "all processes of one session" constructor. *)
  val family : ?sink:Sink.t -> ?seed:int -> procs:int -> unit -> t array

  (** {2 Reporting}

      Each is free when the relevant sink half is absent: the [None]
      path is a pattern match, with no access and no allocation. *)

  (** [span t ~op f] brackets [f ()] as operation [op] in the journal
      (Invoke/Response events). *)
  val span : t -> op:string -> (unit -> 'a) -> 'a

  (** Free-form journal mark (e.g. ["round 3"]); no-op without a
      journal. *)
  val annotate : t -> string -> unit

  (** Like {!annotate} with a format string; on the no-journal path the
      message is never rendered.  [ikfprintf] still builds small
      per-argument closures, so per-access hot loops guard a
      [Printf.sprintf] with {!traced} instead (see [Snapshot.Scan]'s
      pass loop). *)
  val annotatef : t -> ('a, unit, string, unit) format4 -> 'a

  (** [cause t ~family e] reports one occurrence of the mechanical cause
      [e] at object family [family] (a store shard, or [0]): it bumps
      the grid's [(pid, family, e)] cell and, with a journal attached,
      writes one annotation naming [e] ({!Telemetry.Event.name}).
      {!causes} reports [n] occurrences with one cell bump and one
      annotation.  Without grid and journal nothing is allocated.
      @raise Invalid_argument
        if [family] is outside the grid or [n < 0]. *)
  val cause : t -> family:int -> Telemetry.Event.t -> unit

  val causes : t -> family:int -> Telemetry.Event.t -> int -> unit
end

(** {1 Processes on domains} *)

(** [run_domains ~procs body] runs [body pid] for every pid, each on its
    own domain with its pid set ({!set_pid}), and returns the results in
    pid order.  For the duration of the run [Pram.Native.on_seqlock_retry]
    counts into [sink]'s telemetry grid, attributed to the retrying
    domain's pid at family 0; the hook is a no-op again once the call
    returns or raises.  Every domain is joined before a failure is
    re-raised.  [sink] defaults to {!Sink.none}; a sink without a
    telemetry half leaves the hook a no-op.
    @raise Invalid_argument
      if the sink's telemetry grid has fewer than [procs] pids. *)
val run_domains : ?sink:Sink.t -> procs:int -> (int -> 'a) -> 'a list
