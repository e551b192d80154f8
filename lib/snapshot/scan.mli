(** The atomic scan of Section 6 (Figure 5): a wait-free linearizable
    join-semilattice accumulator over an n x (n+2) grid of single-writer
    registers.

    The object has two operations (Section 6): [Write_l v], which folds
    [v] into the abstract join (discarding the scan's internal value),
    and [Read_max], which returns the join of all earlier writes.  Any
    two internal scan values are lattice-comparable (Lemma 32), which
    yields linearizability (Theorem 33).

    Each object runs the one {!variant} fixed at {!Make.create}, so the
    [Adaptive] and [Lattice] arguments, which need every reader of an
    object on the same protocol, always apply.  The object holds only
    the registers that protocol accesses (listed per variant below, for
    n > 1 processes).

    NOTE: the combined primitive [scan] — contribute and read the join
    atomically — is strictly stronger than the paper's object and is NOT
    linearizable as a single operation; use [write_l] / [read_max] for
    the linearizable object.  (The test suite exhibits a concrete
    counterexample; see test/test_snapshot.ml.) *)

type variant =
  | Plain
      (** exactly Figure 5's counted cost: n^2+n+1 reads, n+2 writes;
          the n x (n+2) grid *)
  | Optimized
      (** the Section 6.2 optimizations: n^2-1 reads, n+1 writes
          (own-row mirroring and no final write); n(n+1) registers *)
  | Adaptive
      (** contention-adaptive: publish, collect column 0 once, and
          validate against the epoch and escalation vectors — 4(n-1)
          reads and at most one write when no writer interferes,
          escalating to the [Optimized] passes (and the paper's proof)
          when one does (DESIGN.md section 14); n(n+2) registers, the
          [Optimized] grid plus n escalation flags *)
  | Lattice
      (** sub-quadratic per attempt: each attempt announces a fresh
          generation, collects column 0, and descends that generation's
          {!Classifier_tree} (Attiya-Rachman; the tree of
          [Lattice_agreement.Classifier], stamped with the generation
          over a bounded pool of trees), mapping the agreed pid-set back
          to the contributors' entry values — 2(n-1) + n ceil(log2 n)
          reads and ceil(log2 n) + 3 writes per attempt (DESIGN.md
          section 15).  A scan retries once per later generation a
          concurrent scan announces, so the variant is lock-free, not
          wait-free.  2n + [lattice_pool] n (2^ceil(log2 n) - 1)
          registers, column 0 plus generations and tree pool *)

(** Size of the [Lattice] variant's classifier-tree pool: generation [g]
    descends tree [g mod lattice_pool], so live memory is
    O(procs log procs) registers per generation while generations run
    unbounded. *)
val lattice_pool : int

module Make (L : Semilattice.S) (M : Pram.Memory.VERSIONED) : sig
  type t

  (** [create ~variant ~procs] allocates an object on which all
      [procs] processes run [variant].  With one process [Adaptive] and
      [Lattice] only publish, so they hold column 0 alone.
      @raise Invalid_argument if [procs <= 0]. *)
  val create : variant:variant -> procs:int -> t

  type handle
  (** One process's session with the object: pid, private row mirror,
      adaptive validation scratch, and instrumentation, all drawn from
      the attached context. *)

  (** [attach t ctx] mints the handle process [Ctx.pid ctx] uses for
      every operation on [t].  If the context carries a journal, each
      scan is bracketed as a ["scan"] span with one annotation per pass;
      a sink-less context costs nothing — dispatch happens
      before any span closure is built, so the unobserved adaptive fast
      path allocates nothing at all.  Each escalation is reported
      through {!Runtime.Ctx.cause} as [Scan_escalation] at family 0, and
      each [Lattice] descent as [Classifier_descend] (followed, when
      traced, by a note naming its generation).

      [retries] (default 2) bounds how many times an [Adaptive] scan
      re-runs the cheap collect before escalating: under transient
      contention a second attempt usually validates, cutting the
      escalation rate without touching the uncontended cost.
      @raise Invalid_argument
        if the context pid exceeds [t]'s procs or [retries < 1]. *)
  val attach : ?retries:int -> t -> Runtime.Ctx.t -> handle

  (** The raw Scan(P, v) primitive of Figure 5: fold [v] into P's row
      and return the accumulated join.  Building block for [write_l] and
      [read_max]; not itself atomic (see above). *)
  val scan : handle -> L.t -> L.t

  (** Contribute a value to the join (the object's write operation).
      Under [Adaptive] and [Lattice] this is the bare publish — one
      column-0 write, zero when the contribution is already contained
      in the published value — since a write needs no return value. *)
  val write_l : handle -> L.t -> unit

  (** Return the join of all earlier contributions (the object's read
      operation).  Under [Adaptive] the bottom contribution is always
      contained, so an uncontended read costs 4(n-1) reads and no
      write; under [Lattice] the publish is likewise skipped. *)
  val read_max : handle -> L.t
end

(** Exact per-Scan access counts of Section 6.2: [(reads, writes)] for
    one Scan among [procs] processes.  Experiment E5 checks measured
    executions against these as equalities.  The [Adaptive] row is the
    uncontended fast path of [scan] (4 reads per peer — escalation
    flag, versioned collect, epoch recheck, flag recheck — plus the
    column-0 publish); a contended scan escalates and additionally pays
    the [Optimized] passes plus two escalation-flag writes.  [read_max]
    skips the write and [write_l] skips the collect, so each costs
    strictly less than the combined formula.

    The [Lattice] row — [2(procs-1) + levels * procs] reads and
    [levels + 3] writes, with [levels = Classifier_tree.levels ~procs]
    (publish, generation announce, per-level classifier posts,
    republish) — is the cost of one descent: every loop in it has a
    fixed trip count.  It is the whole scan while no concurrent scan
    opens a later generation, as in a workload of one scan per process;
    each later generation a peer announces costs one more attempt, with
    no bound (the variant is lock-free).  E17 locates the crossover
    against [Optimized] (procs >= 4) and [Adaptive] on such workloads. *)
val cost_formula : procs:int -> variant -> int * int
