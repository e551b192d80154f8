(** Windowed telemetry: contention counters and a time-series sampler.

    The paper's cost model is end-of-run access totals, and
    [Pram.Driver] meters exactly those on the simulator.  Production
    systems are diagnosed from the {e other} axis: what happened {e per
    time window}, and {e why} — a throughput collapse mid-run, one hot
    shard, a CAS retry storm.  This module supplies that axis in three
    pieces, plus the nearest-rank {!Stats} over a {!Histogram} that the
    sampler and the bench summarize samples with:

    - {!Counters}: per-(pid, family) cache-line-padded event counters
      for a fixed vocabulary of {e mechanical causes} ({!Event}) —
      double-collect restarts, store batch fallbacks, store rebuilds,
      shard queue depth, seqlock retries, scan escalations, classifier
      descents.  A family is the
      object-level attribution axis (shard index for the store,
      register family otherwise); each pid increments only its own
      cells, so recording is uncontended.
    - {!Sampler}: a run's one latency record.  It pools every
      operation's latency and, on a clock interval, closes fixed-width
      {!Window}s into a ring, giving per-window ops/sec, p50/p99
      latency and per-event counter deltas.
    - exporters: OpenMetrics/Prometheus text ({!Openmetrics}) and the
      windowed [w_*] rows of the bench JSON pipeline (emitted by
      [Experiments.Bench_stages.series_rows]).

    Everything follows the repo's off-by-default discipline: telemetry
    rides in [Runtime.Sink] next to the tracing journal, algorithms
    report a cause through [Runtime.Ctx.cause], and without a grid that
    call is a single pattern match — zero accesses, zero allocation
    (pinned by the Gc-measured tests in [test_tracing]). *)

(** The named event classes — the mechanical causes a p99 regression is
    attributed to.  The vocabulary is closed on purpose: exporters,
    validators and the [top] renderer all enumerate {!all}. *)
module Event : sig
  type t =
    | Double_collect_restart
        (** a double-collect pass observed a changed tag and retried
            (the lock-free baseline's unbounded loop) *)
    | Store_batch_fallback
        (** a store chunk was closed early because the next operation
            broke the commute/read-only check (Property 1 fallback) *)
    | Store_rebuild
        (** an incremental-memo invariant violation forced a full
            history rebuild in a store shard's construction *)
    | Shard_queue_depth
        (** operations drained from a per-key submit queue at flush,
            attributed to the serving shard — per-window deltas are the
            shard's queue throughput *)
    | Seqlock_retry
        (** a versioned-register read in [Pram.Native.Versioned]
            observed a slot older than its epoch anchor and retried
            (the [cpu_relax] back-off loop) *)
    | Scan_escalation
        (** an adaptive scan detected a concurrent writer or full
            collect during its validation window and fell back to the
            paper's double-collect passes *)
    | Classifier_descend
        (** a Lattice scan descended a generation-stamped classifier
            tree (once per attempt; more than one per scan means a
            generation fence forced a retry) *)

  val all : t list

  (** [List.length all]; also the length of every per-event array. *)
  val count : int

  (** A dense index in [0, count): the array key used throughout. *)
  val index : t -> int

  (** The stable snake_case name (OpenMetrics label value, bench-row
      metric suffix). *)
  val name : t -> string

  val of_name : string -> t option
end

(** Monotone event counters on a [procs x families x events] grid of
    cache-line-padded atomics ([Padding.padded_atomic]).  Each pid is
    expected to bump only its own row, so increments are uncontended;
    reads from other domains are safe at any time (atomic, monotone). *)
module Counters : sig
  type t

  (** [create ~procs ()] allocates the grid; [families] defaults to 1
      (no object-level attribution).
      @raise Invalid_argument if [procs <= 0] or [families <= 0]. *)
  val create : ?families:int -> procs:int -> unit -> t

  val procs : t -> int
  val families : t -> int

  (** [record t ~pid ~family e] adds 1; {!add} adds [n] (useful for
      batch-sized events such as {!Event.Shard_queue_depth}).
      @raise Invalid_argument
        if [pid]/[family] is out of range or [n < 0]. *)
  val record : t -> pid:int -> family:int -> Event.t -> unit

  val add : t -> pid:int -> family:int -> Event.t -> int -> unit
  val get : t -> pid:int -> family:int -> Event.t -> int

  (** Aggregations over the grid. *)
  val total : t -> Event.t -> int

  val family_total : t -> family:int -> Event.t -> int

  (** All event totals at once, indexed by {!Event.index} — the
      snapshot the sampler diffs windows against. *)
  val totals : t -> int array
end

(** Summary statistics of an integer sample.

    Percentile convention: {b nearest-rank}.  For a sample of [count]
    observations sorted ascending, the p99 is the value at 1-based rank
    [max 1 (ceil (0.99 * count))] — no interpolation.  Consequences
    worth knowing when reading reports: stats are only defined on
    non-empty samples ({!Histogram.stats} returns [None] when empty); on
    a singleton the p99, min, max and mean all equal the one
    observation; and for any [count < 100] the rank rounds up to
    [count], so the p99 equals the max. *)
module Stats : sig
  type t = {
    count : int;
    min : int;
    max : int;
    mean : float;
    p50 : int;  (** value at rank [max 1 (ceil 0.50*count)] (nearest-rank) *)
    p99 : int;  (** value at rank [max 1 (ceil 0.99*count)] (nearest-rank) *)
  }

  val pp : Format.formatter -> t -> unit
end

(** A growable sample of non-negative integer observations (operation
    latencies or step counts).  Not thread-safe on its own; {!Sampler}
    serializes access to its histogram. *)
module Histogram : sig
  type t

  val create : unit -> t
  val add : t -> int -> unit
  val count : t -> int

  (** [None] when empty. *)
  val stats : t -> Stats.t option
end

(** One closed sampling window. *)
module Window : sig
  type t = {
    index : int;  (** 0-based, contiguous within a run *)
    t_start : float;  (** seconds since sampler creation *)
    t_end : float;  (** [t_start +. interval], strictly increasing *)
    ops : int;  (** operations observed in this window *)
    latency : Stats.t option;
        (** per-operation latency (ns) observed in this window; [None]
            when the window saw no operations *)
    deltas : int array;
        (** counter increments during this window, by {!Event.index};
            non-negative because counters are monotone *)
  }

  val pp : Format.formatter -> t -> unit
end

(** The windowed sampler: files completed operations (with latency)
    into one pooled sample, and closes windows as the clock crosses
    interval boundaries, diffing {!Counters.totals} at each close.  It
    holds one int per observed operation (the pooled sample) plus
    O(capacity) closed windows.  Thread-safe: any domain may
    {!observe}/{!tick} concurrently (one mutex; operations arrive at
    flush granularity, so contention is modest and never on the store's
    own hot path). *)
module Sampler : sig
  type t

  (** [create ~counters ()] starts the clock at creation time.
      [interval] (seconds, default [0.1]) is the fixed window width;
      [capacity] (default [4096]) bounds the ring — when it overflows,
      the oldest window is dropped (and counted in {!dropped}).
      [clock] (seconds) defaults to the monotonic clock
      ([Monotonic_clock.now]); tests inject a manual clock for
      deterministic windows (the simulator has no real time).
      @raise Invalid_argument
        if [interval <= 0] or [capacity <= 0]. *)
  val create :
    ?clock:(unit -> float) ->
    ?interval:float ->
    ?capacity:int ->
    counters:Counters.t ->
    unit ->
    t

  val interval : t -> float

  (** [observe t ~latency_ns] files one completed operation into the
      current window (closing any windows the clock has passed).
      @raise Invalid_argument if [latency_ns < 0]. *)
  val observe : t -> latency_ns:int -> unit

  (** Close any windows the clock has passed without observing an
      operation — the live renderer's heartbeat. *)
  val tick : t -> unit

  (** Close the currently open window (even if the interval has not
      elapsed; its [t_end] is clamped to the interval grid so
      timestamps stay strictly increasing).  Call once, after every
      driving process has finished; later {!observe}/{!tick} calls
      raise [Invalid_argument]. *)
  val finish : t -> unit

  (** Closed windows, in chronological order. *)
  val windows : t -> Window.t list

  (** Windows lost to ring overflow (0 in any healthy run). *)
  val dropped : t -> int

  (** Operations observed since creation, dropped windows included —
      equals the sum of window [ops] exactly when [dropped = 0]. *)
  val total_ops : t -> int

  (** Latency stats of every operation observed since creation, dropped
      windows included; [None] before the first.  [count] is
      {!total_ops}. *)
  val latency : t -> Stats.t option
end

(** OpenMetrics text exposition (the Prometheus scrape format), plus a
    minimal parser/linter so the round trip is checked by the repo's
    own code rather than asserted. *)
module Openmetrics : sig
  type sample = {
    s_name : string;
    s_labels : (string * string) list;
    s_value : float;
  }

  (** [render c] is the exposition text: one
      [wfa_event_total{event,pid,family}] counter sample per non-zero
      cell (plus a zero total per event so every class is always
      present), and — when [sampler] is given — per-window
      [wfa_window_*] gauges (ops, end-seconds, latency quantiles,
      event deltas).  Deterministic: fixed ordering, `# EOF`
      terminated. *)
  val render : ?sampler:Sampler.t -> Counters.t -> string

  (** Parse an exposition into samples; [Error] on any malformed line.
      Handles exactly the subset {!render} emits (metric families,
      `# TYPE`/`# HELP`/`# EOF` comments, quoted label values with
      backslash/quote/newline escapes). *)
  val parse : string -> (sample list, string) result

  (** The lint gate: {!parse} succeeds, every sample's family was
      declared by a preceding `# TYPE`, metric and label names are
      valid OpenMetrics identifiers, no (name, labels) pair repeats,
      every value is finite, and the text ends with `# EOF`.  Returns
      the sample count. *)
  val lint : string -> (int, string) result
end
