(** The iterated immediate snapshot (IIS) model and approximate
    agreement inside it — realizing the tight Hoest-Shavit constants the
    paper quotes after Lemma 6 (log3 for two processes, log2 for three
    or more).  Experiment E11 measures both.

    Each layer is a Borowsky-Gafni one-shot immediate snapshot
    ({!Immediate_snapshot}): self-inclusion, containment and
    immediacy. *)

module Float_value : Slot_value.S with type t = float

module Make (M : Pram.Memory.VERSIONED) : sig
  type t

  (** [create ~procs ~layers ()] is a fresh chain of [layers] one-shot
      immediate snapshots. *)
  val create : procs:int -> layers:int -> unit -> t

  type handle

  (** [attach t ctx] mints process [Ctx.pid ctx]'s session: one
      underlying layer session per layer.
      @raise Invalid_argument if the context pid exceeds [t]'s procs. *)
  val attach : t -> Runtime.Ctx.t -> handle

  (** Run every layer, updating the value by [rule] on each view;
      one-shot per process. *)
  val run :
    handle -> rule:(own:float -> view:(int * float) list -> float) -> float ->
    float

  (** For n = 2: move two-thirds toward the other's value — shrinks the
      gap by exactly 3 per layer on every schedule, the optimal rate. *)
  val two_proc_optimal :
    handle -> own:float -> view:(int * float) list -> float

  (** For any n: midpoint of the view's range — factor-2 shrink per
      layer (containment suffices). *)
  val midpoint : own:float -> view:(int * float) list -> float

  (** [ceil(log_base (delta /. epsilon))], clamped at 0. *)
  val layers_needed : base:float -> delta:float -> epsilon:float -> int
end
