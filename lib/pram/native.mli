(** Native multicore backend: the same {!Memory.S} interface on OCaml 5
    domains with [Atomic] registers.

    [Atomic.t] provides sequentially consistent single-cell reads and
    writes — exactly the atomic-register semantics the asynchronous PRAM
    model assumes — so algorithms verified under the simulator run
    unchanged, in parallel, here.  Used by the examples, the CLI's
    [counter] torture command, and the wall-clock benches. *)

(** The domain-safe memory backend.  Registers are padded to cache-line
    granularity (see {!Padding}): algorithms allocate arrays of
    single-writer registers back-to-back, and unpadded neighbours would
    false-share lines across domains. *)
module Mem : Memory.S with type 'a reg = 'a Atomic.t

(** Called once per torn-epoch retry in a {!Versioned} read, just before
    the [cpu_relax] back-off.  Defaults to a no-op;
    [Runtime.install_native_hooks] (which [Runtime.Backend.run] calls)
    points it at the telemetry sink's [seqlock_retry] counter for the
    duration of a native run — this layer sits below the telemetry
    library, so attribution is injected rather than imported.  Only the
    stale-slot slow path dereferences it. *)
val on_seqlock_retry : (unit -> unit) ref

(** Seqlock-style versioned single-writer registers: a padded atomic
    epoch plus a plain slot holding an immutable (value, epoch) record.
    The writer publishes the slot before releasing the epoch; readers
    anchor on the atomic epoch and retry (with [Domain.cpu_relax] and
    {!on_seqlock_retry}) while the slot they load is older than the
    anchor.  Because the slot record is immutable, a racy load can
    never yield a mismatched pair — publication safety makes the torn
    case detectable, not dangerous.  [read_versioned] returns the
    stored record itself, so the collect path allocates nothing.

    Single-writer registers only (the epoch source is the writer's own
    last publish), which is the discipline of every register in the
    Section 6 snapshot stack. *)
module Versioned : Memory.VERSIONED

(** [run_parallel ~procs body] runs [body p] for [p = 0..procs-1], each in
    its own domain, returning results in pid order. *)
val run_parallel : procs:int -> (int -> 'a) -> 'a list

(** A sensible domain count for examples and benches: between 2 and 8,
    bounded by the machine's recommended count. *)
val recommended_procs : unit -> int
