(** The iterated immediate snapshot (IIS) model and approximate
    agreement inside it — realizing the tight Hoest-Shavit constants the
    paper quotes after Lemma 6 (log3 for two processes, log2 for three
    or more).  Experiment E11 measures both.

    Layers are pluggable ({!layer_kind}): the classic Borowsky-Gafni
    one-shot immediate snapshot, or a one-shot use of the scan-based
    atomic snapshot running any {!Scan.variant} — notably
    [Snapshot Scan.Lattice], which drops the per-layer cost from
    O(n^2) to O(n log n) accesses while keeping self-inclusion and
    containment (immediacy is lost; see {!create}). *)

module Float_value : Slot_value.S with type t = float

(** [float option] slots for atomic-snapshot layers; [None] = not yet
    participated. *)
module Float_opt_value : Slot_value.S with type t = float option

(** What each layer of a chain is built from.  [Immediate] is the
    Borowsky-Gafni levels algorithm — self-inclusion, containment AND
    immediacy.  [Snapshot v] is a one-shot {!Snapshot_array} created
    with scan variant [v], holding only that variant's registers —
    self-inclusion and containment only (slots flip once
    from absent to present and scans linearize, so views are
    inclusion-ordered; immediacy needs the levels structure).  Midpoint
    agreement only uses containment, so its log2 rate holds on either
    kind; the two-process two-thirds rule is only guaranteed log3 on
    [Immediate] layers. *)
type layer_kind = Immediate | Snapshot of Scan.variant

module Make (M : Pram.Memory.VERSIONED) : sig
  module IS : module type of Immediate_snapshot.Make (Float_value) (M)
  module SA : module type of Snapshot_array.Make (Float_opt_value) (M)

  type t

  (** [create ?layer ~procs ~layers ()] is a fresh chain of [layers]
      one-shot layer objects of kind [layer] (default {!Immediate}); a
      [Snapshot v] layer is created with [v], so every process runs the
      same scan on it. *)
  val create : ?layer:layer_kind -> procs:int -> layers:int -> unit -> t

  val layer_count : t -> int
  val layer_kind : t -> layer_kind

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
      gap by exactly 3 per layer on every schedule, the optimal rate
      (on {!Immediate} layers; see {!layer_kind}). *)
  val two_proc_optimal :
    handle -> own:float -> view:(int * float) list -> float

  (** For any n: midpoint of the view's range — factor-2 shrink per
      layer, on either layer kind (containment suffices). *)
  val midpoint : own:float -> view:(int * float) list -> float

  (** [ceil(log_base (delta /. epsilon))], clamped at 0. *)
  val layers_needed : base:float -> delta:float -> epsilon:float -> int
end
