(** The portable shared-memory interface of the asynchronous PRAM model.

    Every algorithm in this repository is a functor over {!S} (or its
    versioned extension {!VERSIONED}), so one source of truth runs
    against three backends:

    - {!Sim} / {!Sim_v}: accesses suspend the calling fiber and are
      fired one at a time by {!Driver} — the deterministic,
      adversarially schedulable model used for all experiments and most
      tests;
    - {!Direct} / {!Direct_v}: accesses happen immediately — equivalent
      to a solo execution; for sequential unit tests and
      single-threaded use;
    - {!Native.Versioned} (in {!Native}): seqlock single-writer
      registers on real OCaml domains, the one native register. *)

module type S = sig
  type 'a reg
  (** A shared atomic register holding values of type ['a]. *)

  val create : ?name:string -> 'a -> 'a reg
  (** Allocate a register with an initial value.  [name] appears in
      traces and adversary views. *)

  val read : 'a reg -> 'a
  (** Atomically read the register — one step in the paper's cost
      model. *)

  val write : 'a reg -> 'a -> unit
  (** Atomically write the register — one step. *)
end

(** Simulator backend; code using it must run under {!Driver}. *)
module Sim : S with type 'a reg = 'a Register.t

(** Immediate backend: no scheduling, no suspension. *)
module Direct : S with type 'a reg = 'a Register.t

(** Versioned single-writer registers: an atomic register whose writes
    bump a per-register epoch and whose reads return a consistent
    (value, epoch) observation.  The adaptive scan validates a cheap
    collect against the epoch vector and escalates to the paper's
    double-collect only when an epoch moved.

    Reads come back as an abstract ['a versioned] with [value]/[version]
    projections so the native seqlock backend ({!Native.Versioned}) can
    return its internal slot record without allocating.

    Only the register's single writer may call [write] — the epoch
    source is writer-local, matching the single-writer discipline of the
    Section 6 grid. *)
module type VERSIONED = sig
  include S

  type 'a versioned
  (** One consistent (value, epoch) observation of a register. *)

  val read_versioned : 'a reg -> 'a versioned
  (** Read value and epoch together — one step. *)

  val value : 'a versioned -> 'a
  (** Projection; free (no shared access). *)

  val version : 'a versioned -> int
  (** Projection; free (no shared access). *)

  val epoch : 'a reg -> int
  (** Read the current epoch alone — one step.  Epochs start at 0 and
      increase by exactly 1 per [write]. *)
end

(** Versioned simulator registers: each holds the (value, epoch) pair
    in one {!Sim} register, so every versioned operation is exactly one
    scheduled access — sim cost accounting and DPOR dependency tracking
    see the same access sequence whichever projection a reader uses. *)
module Sim_v : VERSIONED

(** Versioned immediate registers: the same pair representation over
    {!Direct}. *)
module Direct_v : VERSIONED

(** Stamped write-once slots: single-writer registers holding at most
    one payload per STAMP (generation number).  [peek] with a stamp
    other than the one last posted sees the slot as empty, and posting a
    newer stamp recycles the slot in place — a bounded register pool
    serves an unbounded sequence of logically fresh write-once trees
    (the Lattice scan's generation-stamped classifier trees).

    The write-once discipline is the caller's: the slot's single writer
    posts at most once per stamp.  Each operation is exactly one
    scheduled access, like {!Sim_v}'s. *)
module Stamped_slot (M : S) : sig
  type 'a slot
  (** A stamped slot over an [M] register. *)

  val make : ?name:string -> unit -> 'a slot
  (** An empty slot (no stamp, no payload).  No shared access. *)

  val post : 'a slot -> stamp:int -> 'a -> unit
  (** Publish a payload under [stamp], recycling any older stamp — one
      step.  Single-writer; at most once per stamp. *)

  val peek : 'a slot -> stamp:int -> 'a option
  (** The payload posted under exactly [stamp], if it is still the
      slot's current stamp — one step. *)

  val stamp : 'a slot -> int
  (** The slot's current stamp (0 when never posted) — one step. *)
end

(** Access hooks for instrumentation wrappers.  The identity passed to a
    hook is assigned by the wrapper (atomically, so it is safe over the
    native backend), not by the wrapped backend. *)
module type Hooks = sig
  val on_create : reg_id:int -> reg_name:string -> unit
  val on_read : reg_id:int -> reg_name:string -> unit
  val on_write : reg_id:int -> reg_name:string -> unit
end

(** [Hooked (M) (H)] is [M] with [H]'s hooks fired on every completed
    access — the generic opt-in counter wrapper behind [Metrics].
    [read], [read_versioned] and [epoch] each fire [on_read] once, so a
    wrapped run counts exactly the accesses of the paper's cost model;
    [S]-only algorithms run on the wrapper as on any [VERSIONED]
    backend.  The unwrapped backends are untouched, so timing runs pay
    nothing unless they instantiate this functor.  Under {!Sim_v} the
    hooks fire at invocation (suspension) time rather than at scheduler
    firing time; scheduled executions should use {!Driver}'s [observer]
    instead. *)
module Hooked (M : VERSIONED) (H : Hooks) : VERSIONED
