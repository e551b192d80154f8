(** Atomic snapshots of an n-slot single-writer array, built on the
    Section 6 scan exactly as the paper describes: each slot is a
    {!Semilattice.Tagged} value (the join keeps the higher tag; tags are
    per-writer sequence numbers), and the array is a
    {!Semilattice.Vector} of slots.

    [update] costs one scan ([write_l]); [snapshot] costs one scan
    ([read_max]), on the {!Scan.variant} fixed at {!Make.create}: O(n^2)
    reads and O(n) writes each on [Optimized] ({!Scan.cost_formula}).
    Linearizability is checked by the test suite against {!Array_spec},
    both under random schedules with crashes and exhaustively on small
    configurations. *)

module Make (V : Slot_value.S) (M : Pram.Memory.VERSIONED) : sig
  type t

  (** [create ~variant ~procs]: [procs] slots, every update and
      snapshot on the [variant] scan. *)
  val create : variant:Scan.variant -> procs:int -> t

  type handle

  (** [attach t ctx] is process [Ctx.pid ctx]'s session with [t]; the
      underlying scan session inherits the context's instrumentation. *)
  val attach : t -> Runtime.Ctx.t -> handle

  (** Store [v] in the caller's slot. *)
  val update : handle -> V.t -> unit

  (** An instantaneous view of all slots ([V.default] for never-updated
      slots). *)
  val snapshot : handle -> V.t array
end
