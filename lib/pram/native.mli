(** Native multicore backend: the {!Memory.VERSIONED} interface on OCaml
    5 domains, as seqlock single-writer registers.

    The algorithms verified under the simulator run unchanged, in
    parallel, here: the store, the examples, the CLI's native runs and
    the wall-clock benches.  Processes are put on domains by
    [Runtime.run_domains], which calls {!run_parallel}. *)

(** Called once per torn-epoch retry in a {!Versioned} read, just before
    the [cpu_relax] back-off.  Defaults to a no-op;
    [Runtime.run_domains] points it at the telemetry sink's
    [seqlock_retry] counter for the duration of its run — this layer
    sits below the telemetry library, so attribution is injected rather
    than imported.  Only the stale-slot slow path dereferences it. *)
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
    its own domain, returning results in pid order.  Every domain is
    joined before the first exception (in pid order) is re-raised. *)
val run_parallel : procs:int -> (int -> 'a) -> 'a list
