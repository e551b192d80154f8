(** A linearizability checker in the style of Wing & Gould — the test
    oracle used throughout this repository.

    Given a concurrent history and a sequential specification, [Make(O)]
    decides whether the history can be extended (pending invocations
    completed or dropped) and reordered into a legal sequential history
    respecting real-time precedence — linearizability as defined in
    Section 3.2 of the paper.

    The search is complete (it decides the property exactly, unlike the
    specific witness orders used in the paper's proofs) and memoized on
    (linearized set, canonically printed state); worst case exponential,
    ample for the history sizes the tests produce.  [search_check] runs
    it on every execution a {!Pram.Explore.search} visits. *)

module Make (O : Spec.Object_spec.S) : sig
  type call = (O.operation, O.response) Spec.History.call

  type verdict =
    | Linearizable of call list
        (** a witness linearization (linearized calls in order; dropped
            pending calls omitted) *)
    | Not_linearizable

  (** Decide a history given as recorded events. *)
  val check :
    (O.operation, O.response) Spec.History.event list -> verdict

  val is_linearizable :
    (O.operation, O.response) Spec.History.event list -> bool

  (** Decide a pre-parsed call array (see {!Spec.History.calls_of_events}). *)
  val check_calls : call array -> verdict

  val pp_witness : Format.formatter -> call list -> unit

  (** [search_check ~way ~procs mk] wires {!Pram.Explore.search_check}
      to this checker: it checks the history in the recorder at each
      completed execution and, on failure, shrinks the counterexample
      schedule and renders it along with its history.  [mk] must mint a
      {e fresh} (recorder, program) pair on every call, and [program]
      must re-create its recorder on each instantiation —
      {!Pram.Explore.search} calls [mk] once per worker domain, keeping
      the by-reference recorder domain-local.  Results (coverage counts,
      failures, counterexample) are deterministic and independent of
      [jobs].  A sequential caller ([jobs] 1, or {!Pram.Explore.Way.Naive})
      may return the same pair on every call. *)
  val search_check :
    way:Pram.Explore.Way.t ->
    ?jobs:int ->
    ?shrink:bool ->
    ?max_schedules:int ->
    ?max_crashes:int ->
    procs:int ->
    (unit ->
      (O.operation, O.response) Spec.History.Recorder.t ref
      * (unit -> int -> 'x)) ->
    Pram.Explore.report

  (** [trace_counterexample ~procs ~recorder program enc] replays the
      encoded schedule [enc] (e.g. a report's [cex_shrunk]) with a
      {!Tracing.Journal} attached: accesses stream in via the driver
      observer, operation invoke/response events via a recorder sink,
      and crash actions are marked — one causally ordered journal.  The
      returned archive (with the normalized schedule) renders via
      {!Tracing.pp_timeline} / {!Tracing.chrome_json}.  [program] and
      [recorder] must be a pair minted by the [mk] given to
      {!search_check}. *)
  val trace_counterexample :
    ?completion_fuel:int ->
    procs:int ->
    recorder:(O.operation, O.response) Spec.History.Recorder.t ref ->
    (unit -> int -> 'x) ->
    int list ->
    Tracing.archive
end
