(** The wait-free universal construction of Figure 4 (Section 5.4): a
    linearizable implementation of ANY object satisfying Property 1
    (operations pairwise commute or overwrite) from single-writer
    registers.

    Per operation: one atomic snapshot of the anchor array plus one
    anchor update — 2 scans, i.e. O(n^2) reads and writes of
    synchronization (experiment E6, exact) — plus local linearization
    work over the precedence graph.  Since PR 5 the default
    {!Make.Incremental} mode memoizes the already-linearized prefix and
    merges each new snapshot as a delta, so a run of m operations does
    O(m) total spec replays on commuting workloads instead of the
    O(m^2) of the from-scratch {!Make.Reference} mode (kept for
    differential testing; see DESIGN.md §10 for the soundness argument
    against Lemmas 16-25).  Synchronization costs are identical in both
    modes — the memo only changes local work.

    Correctness (Theorem 26 / Corollary 27) is exercised by the test
    suite: histories of counters, grow-only sets, max-registers,
    multi-writer registers and histograms are checked linearizable under
    random schedules with crash injection, and the two modes are checked
    byte-identical over exhaustively explored schedules and random
    scripts (test/test_incremental.ml). *)

(** The anchors' scan variant unless [create] is given another:
    [Snapshot.Scan.Adaptive]. *)
val default_variant : Snapshot.Scan.variant

module Make (O : Spec.Object_spec.S) (M : Pram.Memory.VERSIONED) : sig
  type entry = {
    e_pid : int;
    e_seq : int;  (** per-process operation counter, from 1 *)
    e_depth : int;
        (** longest preceding-chain below this entry — the canonical
            precedence rank used to order nodes, fixed at creation *)
    e_op : O.operation;
    e_resp : O.response;
    e_preceding : entry option array;  (** the snapshot at creation *)
  }

  type t

  (** [create ?variant ~procs ()] is an empty object for [procs]
      processes whose anchor snapshots all run the scan [variant]
      (default {!default_variant}) — [Lattice] costs O(procs log procs)
      accesses per descent, and a scan descends once more for each later
      generation a concurrent scan announces (lock-free, not
      wait-free). *)
  val create : ?variant:Snapshot.Scan.variant -> procs:int -> unit -> t

  (** How a handle computes the pre-state of each operation.

      [Incremental] (the default) keeps a per-handle memo of the
      already-linearized prefix — replayed state, per-peer high-water
      marks, and a distinct-operation summary — and merges each new
      snapshot as a delta, falling back to a full rebuild whenever a
      precedence-incomparable non-commuting pair of mutators appears
      (the condition under which linearization order is not forced;
      DESIGN.md §10).  The summary keeps only operations above the
      frontier, the causal past that every process's latest committed
      entry contains: every later entry follows it, so the rest can
      never fail a check.  A process with no committed entry pins the
      frontier at zero, and then the summary holds every distinct
      committed operation.  [Reference] re-walks the whole reachable graph
      and replays the full canonical linearization on every operation —
      the from-scratch Figure 4 behaviour, kept for differential
      testing.  Responses are byte-identical across modes; only local
      work differs. *)
  type mode = Incremental | Reference

  type handle

  (** Memo introspection: [committed] entries in the memoized prefix,
      total [spec_replays] (history entries pushed through [O.apply],
      excluding each operation's own response apply), delta [merges],
      full [rebuilds], whether the memo is still [canonical] (able to
      merge), and the [summary] size: distinct operations above the
      frontier, which each delta entry is checked against.
      [Reference] handles count only [spec_replays]. *)
  type stats = {
    committed : int;
    spec_replays : int;
    merges : int;
    rebuilds : int;
    canonical : bool;
    summary : int;
  }

  (** [attach t ctx] is process [Ctx.pid ctx]'s session with [t] (and
      with the underlying anchor snapshot-array).  If the context
      carries a journal, each [execute] is bracketed as a
      ["uc.execute"] span with snapshot / replay / publish annotations;
      a sink-less context costs nothing.
      @raise Invalid_argument if the context pid exceeds [t]'s procs. *)
  val attach : ?mode:mode -> t -> Runtime.Ctx.t -> handle

  (** Figure 4's [execute]: snapshot, linearize (memoized or from
      scratch, per the handle's {!mode}), respond, publish. *)
  val execute : handle -> O.operation -> O.response

  (** Compute the response [op] would get from the current state without
      publishing an entry — valid only for state-preserving operations
      (reads/queries); cheaper and history-neutral. *)
  val query : handle -> O.operation -> O.response

  (** Number of entries reachable from the caller's current view (the
      precedence-graph size); test/bench introspection. *)
  val history_size : handle -> int

  val stats : handle -> stats

  (** [(stats h).rebuilds], without allocating the record. *)
  val rebuilds : handle -> int

  val mode : handle -> mode
end

(** Check Property 1 over a finite operation universe; [Error] carries
    the first violating pair.  Counters, registers, sets and histograms
    pass; queues and sticky registers are rejected. *)
val check_property1 :
  (module Spec.Object_spec.S with type operation = 'op) ->
  'op list ->
  (unit, string) result
