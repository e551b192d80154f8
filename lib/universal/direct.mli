(** Type-specific optimizations of Section 5.4's closing remark: for
    concrete data types, the precedence graph can be discarded entirely
    by representing the state as a join-semilattice over one Section 6
    scan.  An operation costs one scan — O(n^2) reads, O(n) writes — and
    constant local work, independent of the operation history
    (experiment E9 quantifies the win over the generic Figure 4
    construction).

    The price is generality: only the COMMUTING core of each type fits
    (e.g. no [reset] on the counter, no [reset_all] on the histogram,
    no removals on the set) — overwriting operations need the generic
    construction.  All implementations here are linearizable; the test
    suite checks the counter exhaustively over every 2-process
    interleaving.

    Every module follows the handle convention: [attach t ctx] mints
    process [Ctx.pid ctx]'s session with the object (the underlying scan
    session inherits the context's instrumentation), and operations take
    the handle only.  Every object runs the [Snapshot.Scan.Optimized]
    scan, fixed at [create]: n(n+1) registers, n^2-1 reads and n+1
    writes per scan. *)

(** Counter with per-process monotone (inc_total, dec_total) pairs. *)
module Counter (M : Pram.Memory.VERSIONED) : sig
  type t

  val create : procs:int -> t

  type handle

  val attach : t -> Runtime.Ctx.t -> handle

  (** @raise Invalid_argument on negative amounts. *)
  val inc : handle -> int -> unit

  (** @raise Invalid_argument on negative amounts. *)
  val dec : handle -> int -> unit

  val read : handle -> int
end

(** Grow-only set of ints under union. *)
module Gset (M : Pram.Memory.VERSIONED) : sig
  type t

  val create : procs:int -> t

  type handle

  val attach : t -> Runtime.Ctx.t -> handle
  val add : handle -> int -> unit

  (** Sorted ascending. *)
  val members : handle -> int list

  val mem : handle -> int -> bool
end

(** Max-register over naturals. *)
module Max_register (M : Pram.Memory.VERSIONED) : sig
  type t

  val create : procs:int -> t

  type handle

  val attach : t -> Runtime.Ctx.t -> handle

  (** @raise Invalid_argument on negative values. *)
  val write_max : handle -> int -> unit

  val read_max : handle -> int
end

(** Lamport logical clocks [33] on the max-register.  Concurrent ticks
    may collide; [tick] returns [(count, pid)] ready for lexicographic
    tie-breaking.  Causally ordered events always receive strictly
    increasing timestamps. *)
module Logical_clock (M : Pram.Memory.VERSIONED) : sig
  type t
  type timestamp = int * int

  val create : procs:int -> t

  type handle

  val attach : t -> Runtime.Ctx.t -> handle

  (** A timestamp strictly above everything this process has observed. *)
  val tick : handle -> timestamp

  (** Fold in a timestamp received out of band. *)
  val observe : handle -> timestamp -> unit

  val now : handle -> int
  val compare_ts : timestamp -> timestamp -> int
end

(** Keyed histogram: per-process per-bucket monotone totals. *)
module Histogram (M : Pram.Memory.VERSIONED) : sig
  type t

  val create : procs:int -> t

  type handle

  val attach : t -> Runtime.Ctx.t -> handle

  (** @raise Invalid_argument on negative weights. *)
  val observe : handle -> bucket:int -> int -> unit

  val count : handle -> bucket:int -> int
  val total : handle -> int

  (** Non-zero buckets, sorted by key. *)
  val bindings : handle -> (int * int) list
end

(** Vector clocks on the Vector(Nat_max) lattice.  [tick] returns the
    merged vector including the caller's advanced component; concurrent
    ticks are pairwise comparable (they are scan outputs — Lemma 32) and
    may coincide, unlike message-passing vector clocks. *)
module Vector_clock (M : Pram.Memory.VERSIONED) : sig
  type t

  val create : procs:int -> t

  type handle

  val attach : t -> Runtime.Ctx.t -> handle
  val tick : handle -> int array

  (** Merge a vector received out of band. *)
  val observe : handle -> int array -> unit

  val now : handle -> int array

  (** Pointwise order: the happened-before test. *)
  val leq : int array -> int array -> bool

  val concurrent : int array -> int array -> bool
end
