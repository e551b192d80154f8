(** Execution traces: the totally ordered sequence of shared-memory
    accesses fired by {!Driver}, streamed to its [~observer].  One
    access is one step of the paper's cost model; experiment E5 counts
    reads and writes from these records. *)

type kind =
  | Read
  | Write

type access = {
  step : int;  (** global step index, from 0 *)
  pid : int;  (** process that performed the access *)
  reg_id : int;
  reg_name : string;
  kind : kind;
}

(** [dependent a b]: the conflict relation of partial-order reduction —
    different processes, same register, at least one write.  Swapping
    adjacent independent accesses in a schedule leaves the execution
    state unchanged. *)
val dependent : access -> access -> bool

(** Printer for encoded schedules (see {!Explore}): action [p >= 0]
    steps process [p]; [-1 - p] crashes it (printed [!pN]). *)
val pp_encoded_schedule : Format.formatter -> int list -> unit

(** The inverse of {!pp_encoded_schedule}: parse whitespace-separated
    [pN] / [!pN] tokens back into encoded actions, so a printed
    counterexample can be pasted into [wfa_cli explore --replay].
    [Error] names the first offending token. *)
val parse_encoded_schedule : string -> (int list, string) result
