(** One-shot lattice agreement — the technique the paper's Section 2
    singles out as "closely related to the semilattice construction we
    use in Section 6" and the basis of asymptotically faster snapshots
    (Attiya-Rachman).

    Each process proposes once and outputs a value such that:
    - validity: own proposal <= output <= join of all proposals;
    - comparability: any two outputs are ordered.

    Values are sets of process ids (each pid standing for that process's
    proposal); to run lattice agreement over an arbitrary semilattice,
    map the output's members to their proposed elements and join them. *)

module Pid_set : Set.S with type elt = int

module type S = sig
  type t

  val create : procs:int -> t

  type handle

  (** [attach t ctx] is process [Ctx.pid ctx]'s session with [t].
      @raise Invalid_argument if the context pid exceeds [t]'s procs. *)
  val attach : t -> Runtime.Ctx.t -> handle

  (** One-shot: at most one call per process; the input must contain the
      caller's own pid (usually the singleton) and only pids below
      [procs].
      @raise Invalid_argument otherwise. *)
  val propose : handle -> Pid_set.t -> Pid_set.t

  (** Exact shared reads of one [propose], for experiment E10. *)
  val reads_per_propose : procs:int -> int
end

(** Lattice agreement as one Section 6 scan: O(n^2) reads. *)
module Via_scan (M : Pram.Memory.VERSIONED) : S

(** One descent of the Attiya-Rachman {!Classifier_tree} (one stamp,
    unit payloads): the proposed pid-set goes in as the map's domain and
    the agreed domain comes out.  O(n log n) reads — the asymptotic
    improvement of experiment E10. *)
module Classifier (M : Pram.Memory.S) : S

(** [valid ~own ~all output]: the validity condition. *)
val valid : own:Pid_set.t -> all:Pid_set.t -> Pid_set.t -> bool

val comparable : Pid_set.t -> Pid_set.t -> bool
