(** Seeded workload and schedule generators for tests, benches and the
    CLI.  Everything is deterministic in its seed, so experiment rows
    are reproducible end to end. *)

type 'op script = int -> 'op list
(** A script assigns each process its operation list.  Each pid's list is
    a pure function of [(seed, pid)] — in particular it does not depend
    on the order in which pids are first queried — and is memoized, so
    repeated queries return the same (physically equal) list. *)

val counter_script :
  seed:int -> ops_per_proc:int -> Spec.Counter_spec.operation script

val gset_script :
  seed:int -> ops_per_proc:int -> Spec.Gset_spec.operation script

(** Zipfian key popularity: rank [i] (1-based) has weight [1/i^theta];
    [theta = 0] is uniform, [~0.99] the YCSB-style hot-key skew.
    Sampling is O(log keys) binary search over a precomputed CDF. *)
module Zipf : sig
  type t

  (** @raise Invalid_argument if [keys <= 0] or [theta < 0]. *)
  val make : keys:int -> theta:float -> t

  val keys : t -> int

  (** A rank in [0, keys), drawn from the given state. *)
  val sample : t -> Random.State.t -> int
end

(** The stable name of key rank [i] (["k0007"] style), shared by every
    keyed script so harnesses can reconstruct per-key expectations. *)
val key_name : int -> string

(** Keyed traffic scripts: each operation targets a zipfian-drawn key;
    reads appear with probability [read_fraction], the rest are
    commuting mutators (counter: [Inc]/[Dec]; gset: [Add]) — the class
    the store's batching folds.  Pure in [(seed, pid)] like the flat
    scripts.
    @raise Invalid_argument if [read_fraction] is outside [0, 1]. *)
val keyed_counter_script :
  seed:int ->
  keys:int ->
  theta:float ->
  read_fraction:float ->
  ops_per_proc:int ->
  (string * Spec.Counter_spec.operation) script

(** The traffic front-end: drives one process's keyed operation stream
    against a store-like consumer through [submit]/[flush] closures
    (keeping this module independent of the object layer), filing each
    operation's latency with the run's sampler. *)
module Traffic : sig
  (** [Closed] issues the next operation as soon as the previous flush
      returns; [Open {rate}] schedules arrivals at [rate] operations per
      second and measures latency from the {e scheduled} arrival, so
      backlog when the system falls behind is charged to the system
      (the coordinated-omission correction). *)
  type loop = Closed | Open of { rate : float }

  (** [drive ~sampler ~ops ~submit ~flush ()] pushes each [(key, op)]
      through [submit] and calls [flush] every [flush_every] submissions
      (default 64 — the effective batch-size ceiling) and once at the
      end.  Each operation's latency in nanoseconds, measured on the
      monotonic clock at flush granularity (an operation completes when
      the flush containing it returns), goes to
      [Telemetry.Sampler.observe sampler]: share one sampler across the
      driving processes and it holds the whole run's latencies and its
      per-window series.  Meaningful on the native/direct backends.
      @raise Invalid_argument
        if [flush_every <= 0] or an open-loop rate is not positive. *)
  val drive :
    sampler:Telemetry.Sampler.t ->
    ?loop:loop ->
    ?flush_every:int ->
    ops:(string * 'op) list ->
    submit:(string -> 'op -> unit) ->
    flush:(unit -> unit) ->
    unit ->
    unit
end

(** Inputs for approximate agreement: [procs] values spanning exactly
    [0, delta]. *)
val agreement_inputs : seed:int -> procs:int -> delta:float -> float array

type schedule_kind =
  | Round_robin
  | Uniform of int  (** uniformly random; the int is the seed *)
  | Crashy of int
      (** uniform with 5% crash probability, at least one survivor *)
  | Bursty of int
      (** geometric bursts of one process at a time — adversarial for
          algorithms that rely on interleaving *)

val scheduler_of : schedule_kind -> 'r Pram.Scheduler.t

(** Round-robin plus [seeds] each of uniform, bursty and crashy — the
    standard mix behind "measured worst case" columns. *)
val standard_schedules : seeds:int -> schedule_kind list
