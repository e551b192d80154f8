(** Schedule exploration (bounded model checking) behind one entry
    point, {!search}[ ~way]: naive, DPOR-pruned, bounded, and randomized.

    Executions are deterministic functions of their schedules, so all
    behaviours of a small program can be enumerated by DFS over maximal
    schedules.  The test suite uses this to check linearizability of the
    paper's algorithms over {e every} interleaving of small
    configurations — a much stronger guarantee than random scheduling.

    {!Way.Naive} enumerates every maximal schedule; it is the ground
    truth, and the only systematic way that injects crashes.
    {!Way.Systematic} applies dynamic partial-order reduction with sleep
    sets (Flanagan-Godefroid 2005): two accesses are dependent iff they
    touch the same register and at least one is a write, and only
    schedules that flip a dependent pair are revisited.  Unbounded, it
    explores exactly one representative of every Mazurkiewicz trace,
    typically orders of magnitude fewer schedules than {!Way.Naive};
    a pre-emption bound ({!Bounds}) makes it sound for bug finding
    only.  Seeded {!Way.Uniform}/{!Way.Weighted} random sampling
    reaches past exhaustive sizes.  Systematic and random ways
    parallelize across domains with deterministic, jobs-independent
    results.

    A program is [unit -> 'r run]: each call allocates one execution's
    registers and whatever state its check reads (e.g. a history
    recorder), and the explorer judges every execution by the check of
    the run that started it. *)

(** Schedule bounds in the style of dejafu's SCT layer: a pre-emption
    bound.  It is prefix-invariant, so the explorer prunes a subtree as
    soon as its root prefix is out of bounds; pruned branches are
    counted in {!type-coverage}. *)
module Bounds : sig
  type t = {
    bd_preempt : int option;
        (** max pre-emptive context switches — steps by [p] while the
            previously stepped process is still runnable *)
  }

  val none : t
  (** No bounds: plain DPOR. *)

  val default : t
  (** [preempt <= 3] — a small pre-emption bound catches almost all
      bugs in practice (Musuvathi-Qadeer). *)

  val make : ?preempt:int -> unit -> t
  val is_none : t -> bool
  val to_string : t -> string
end

(** How to explore the schedule space (dejafu's [Way]). *)
module Way : sig
  type t =
    | Naive
        (** every maximal schedule, in one sequential depth-first task
            under a global [max_schedules]; crash branches with
            [max_crashes > 0] *)
    | Systematic of Bounds.t
        (** DPOR with sleep sets, filtered by the bounds.  With
            {!Bounds.none} this is exhaustive (per Mazurkiewicz trace);
            with real bounds it is sound for bug finding only. *)
    | Uniform of { seed : int; count : int }
        (** [count] maximal schedules, each decision uniform over the
            runnable processes; sample [i] is a deterministic function
            of [(seed, i)]. *)
    | Weighted of { seed : int; count : int; bias : float }
        (** like [Uniform], but each decision favours staying on the
            previously stepped process with relative weight [bias] —
            near-serial schedules that catch real-time-order bugs
            uniform sampling almost never hits. *)

  val systematic : t
  (** [Systematic Bounds.none]. *)

  val to_string : t -> string
end

(** Merged exploration counters, one per {!search} run; flows into the
    bench JSON so coverage regressions show up in the committed
    trajectory. *)
type coverage = {
  cov_explored : int;  (** completed executions visited (incl. samples) *)
  cov_pruned : int;
      (** branches cut by bounds or sleep sets — a lower bound on the
          number of skipped subtrees *)
  cov_sampled : int;  (** random samples drawn (0 for systematic ways) *)
  cov_tasks : int;  (** parallel subtree/shard tasks the search ran *)
}

type outcome = {
  explored : int;  (** completed executions visited *)
  failures : int list list;
      (** schedules of executions that failed the check; crash actions
          are encoded as [-1 - pid] *)
  failure_tags : string list;
      (** provenance tag per failure, aligned with [failures] (e.g.
          ["sample=137"] or ["task=3"]); empty when untagged *)
  truncated : bool;  (** [max_schedules] stopped the search early *)
  pending : int;
      (** branch points abandoned because of [max_schedules]; a lower
          bound on the number of unexplored schedules (0 iff the search
          ran to completion) *)
  way : Way.t;  (** the way that produced this outcome *)
  coverage : coverage;
}

(** No failures and the search was not truncated. *)
val ok : outcome -> bool

(** One execution of a program.  [body] is the per-process body the
    driver runs; [check] judges the completed execution, given its
    driver and encoded schedule; [pp_history], if any, renders the
    execution's history into a counterexample message.  [check] and
    [pp_history] read state allocated by the same program call as
    [body], so they see this execution and no other. *)
type 'r run = {
  body : int -> 'r;
  check : 'r Driver.t -> int list -> bool;
  pp_history : (Format.formatter -> unit -> unit) option;
}

(** [instance ~check setup] is the program whose runs take their body
    from [setup ()] and judge it with [check] — for checks that read
    only the driver and the schedule. *)
val instance :
  check:('r Driver.t -> int list -> bool) ->
  (unit -> int -> 'r) ->
  unit ->
  'r run

(** [sample_schedule ~way ~index ~procs setup] draws the [index]-th
    random schedule of a {!Way.Uniform}/{!Way.Weighted} way, runs it to
    quiescence on a fresh driver, and returns the encoded schedule plus
    the driver.  Deterministic in [(way, index)] regardless of how
    {!search} shards samples.  With [max_crashes > 0] each decision may
    crash a runnable process with small probability until the budget is
    spent.
    @raise Invalid_argument on a [Naive] or [Systematic] way. *)
val sample_schedule :
  ?max_crashes:int ->
  way:Way.t ->
  index:int ->
  procs:int ->
  (unit -> int -> 'r) ->
  int list * 'r Driver.t

(** [search ~way ~jobs ~procs program] explores the program's
    schedule space according to [way], in parallel on up to [jobs]
    domains.  It is the only exploration entry point.

    {!Way.Naive} is one sequential depth-first task (on the calling
    domain, whatever [jobs]) and [max_schedules] is a global budget.
    Systematic ways partition the schedule tree into a deterministic
    frontier of subtree roots (with sleep-set seeding from left
    siblings, so cross-subtree duplication is pruned) and run an
    independent bounded DPOR per subtree; [max_schedules] is a
    PER-SUBTREE budget.  Random ways shard [count] sample indices
    across tasks.  Either way the task partition — and therefore every
    counter and the failure list — is independent of [jobs].

    Soundness: [Naive] checks every maximal schedule.
    [Systematic Bounds.none] checks exactly one schedule per
    Mazurkiewicz trace, so it finds every state-dependent violation,
    but it can miss violations living purely in the real-time order of
    independent accesses (e.g. a reader missing a completed write it
    never reads the registers of): commuting independent accesses
    preserves states, not event order, so a class's representative may
    linearize though another member does not.  Bounded systematic
    search and random ways are sound for bug finding only — every
    reported failure is a real execution, but absence of failures
    proves nothing outside the bounds / sample set.  Random ways check
    complete concrete executions and so CAN catch real-time-order
    violations DPOR misses.
    @raise Invalid_argument for a [Systematic] way with
    [max_crashes > 0], or a [Naive] or [Systematic] way with
    [procs >= Sys.int_size - 1] (the walker keeps pid sets as
    bitmasks). *)
val search :
  way:Way.t ->
  ?jobs:int ->
  ?max_schedules:int ->
  ?max_crashes:int ->
  procs:int ->
  (unit -> 'r run) ->
  outcome

(** [apply_encoded d enc] applies an encoded schedule ([p >= 0] steps
    process [p], [-1 - p] crashes it) tolerantly to an existing driver —
    actions targeting non-runnable processes are dropped.  [on_crash]
    observes each applied crash, pid-decoded (the driver's [observer]
    only sees accesses; the tracing layer records crash events here).
    Returns the applied prefix. *)
val apply_encoded : ?on_crash:(int -> unit) -> 'r Driver.t -> int list -> int list

(** [complete d] runs every surviving process to completion in pid
    order, making the execution maximal; returns the steps taken.
    @raise Failure if completion exceeds [completion_fuel] steps. *)
val complete : ?completion_fuel:int -> 'r Driver.t -> int list

(** [replay_encoded ~procs setup enc] is a fresh driver plus
    {!apply_encoded} plus {!complete}: the normalized maximal replay
    used by shrinking and counterexample rendering.  Returns the driver
    and the schedule actually applied.  [observer] and [on_crash] feed
    streaming consumers (e.g. a tracing journal) during the replay.
    @raise Failure if completion exceeds [completion_fuel] steps. *)
val replay_encoded :
  ?observer:(Trace.access -> unit) ->
  ?on_crash:(int -> unit) ->
  ?completion_fuel:int ->
  procs:int ->
  (unit -> int -> 'r) ->
  int list ->
  'r Driver.t * int list

(** [shrink ~procs program failing] delta-debugs a failing schedule
    to a locally minimal one: repeatedly deletes action chunks,
    renormalizes with {!replay_encoded} on a fresh run, and keeps
    candidates that still fail that run's check with a strictly smaller
    (length, context switches) measure.  The result is never longer
    than the input and still fails on replay; a non-failing input is
    returned unchanged. *)
val shrink :
  ?max_rounds:int ->
  procs:int ->
  (unit -> 'r run) ->
  int list ->
  int list

(** Number of adjacent action pairs taken by different processes — the
    secondary minimization objective of {!shrink} (schedule length cannot
    shrink in crash-free runs, where renormalization re-completes every
    process). *)
val context_switches : int list -> int

type counterexample = {
  cex_schedule : int list;  (** the first failing schedule found *)
  cex_shrunk : int list;  (** its deletion-minimal shrink (still failing) *)
  cex_way : string;
      (** provenance: the way description plus a sample/task tag (e.g.
          ["uniform(seed=42,count=2000) sample=137"]) — enough to
          re-derive the failing schedule deterministically *)
  cex_message : string;  (** rendered schedule + failing history *)
}

type report = {
  r_outcome : outcome;
  r_counterexample : counterexample option;
}

(** [search_check ~way ~procs program] is {!search} plus
    counterexample handling: the first failing schedule is ddmin-shrunk
    (unless [shrink:false]) and replayed on a fresh run, whose
    [pp_history] renders the minimal failing history into the message.
    [cex_way] records the search provenance.  [Lincheck.Make] builds
    the runs from a recorder and an object specification. *)
val search_check :
  way:Way.t ->
  ?jobs:int ->
  ?shrink:bool ->
  ?max_schedules:int ->
  ?max_crashes:int ->
  procs:int ->
  (unit -> 'r run) ->
  report

(** Search complete, no violation. *)
val report_ok : report -> bool

val pp_report : Format.formatter -> report -> unit
