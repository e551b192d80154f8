(** The Lemma 6 lower-bound adversary, and a greedy n-process
    generalization.

    Implementation-agnostic: anything packaged as a {!protocol} can be
    attacked, not just this repository's Figure 2 algorithm.  The
    preference oracle of the proof ("what would P return if it ran alone
    from here?") is realized by deterministic replay — see DESIGN.md. *)

type protocol = {
  procs : int;
  setup : unit -> int -> float;
      (** a fresh protocol instance: process [pid] runs to completion and
          returns its decision *)
  epsilon : float;  (** the agreement slack the adversary plays against *)
}

type outcome = {
  schedule : int list;  (** the adversarial prefix, oldest step first *)
  forced_steps : int array;
      (** per-process steps over the completed execution *)
  outputs : float array;  (** decisions ([nan] for crashed processes) *)
  iterations : int;  (** adversary decision rounds *)
}

(** The preference oracle: replay [prefix], run [p] alone, return its
    decision.
    @raise Failure if [p] does not terminate solo (not wait-free). *)
val preference : protocol -> int list -> int -> float

val finished : protocol -> int list -> int -> bool

(** The faithful two-process strategy from the proof of Lemma 6: run each
    process to the brink of changing the other's preference, then step
    whichever choice keeps the preference gap largest (at least a third
    survives).  Stops when the gap falls to [epsilon] or a process
    decides; the returned outcome reflects the completed execution.
    @raise Invalid_argument if [protocol.procs <> 2]. *)
val run_two_process : ?max_iterations:int -> protocol -> outcome

(** Greedy n-process adversary (single-step and ordered-pair extensions,
    maximizing the spread of preferences) — used by experiment E8 to
    exhibit the 2-vs-3-process separation. *)
val run_greedy : ?max_iterations:int -> protocol -> outcome

val max_forced : outcome -> int
