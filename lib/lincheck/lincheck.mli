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
    it on every execution a {!Pram.Explore.search} visits.  A fixture
    is a [record -> int -> 'x]: every execution hands it the [record]
    of a fresh recorder, so each execution's check reads its own
    history. *)

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

  (** How a program records one operation: [record ~pid op run] brackets
      [run ()] with [op]'s invocation and response events and returns
      the response. *)
  type record = pid:int -> O.operation -> (unit -> O.response) -> O.response

  (** [instance program] is the {!Pram.Explore} program whose every run
      calls [program] with a fresh recorder's [record] (allocating the
      execution's object and returning its per-process body) and checks
      that recorder's history for linearizability.  Combine its [check]
      with driver checks (e.g. survivors finish) by wrapping the run. *)
  val instance : (record -> int -> 'x) -> unit -> 'x Pram.Explore.run

  (** [search_check ~way ~procs program] is {!Pram.Explore.search_check}
      on [instance program]: it checks each visited execution's history
      and, on failure, shrinks the counterexample schedule and renders
      it along with its history.  Results (coverage counts, failures,
      counterexample) are deterministic and independent of [jobs]. *)
  val search_check :
    way:Pram.Explore.Way.t ->
    ?jobs:int ->
    ?shrink:bool ->
    ?max_schedules:int ->
    ?max_crashes:int ->
    procs:int ->
    (record -> int -> 'x) ->
    Pram.Explore.report

  (** [trace_counterexample ~procs program enc] replays the encoded
      schedule [enc] (e.g. a report's [cex_shrunk]) with a
      {!Tracing.Journal} attached: accesses stream in via the driver
      observer, operation invoke/response events via the [record] given
      to [program], and crash actions are marked — one causally ordered
      journal.  Returns the archive (with the normalized schedule),
      which renders via {!Tracing.pp_timeline} / {!Tracing.save},
      and the replayed execution's history. *)
  val trace_counterexample :
    ?completion_fuel:int ->
    procs:int ->
    (record -> int -> 'x) ->
    int list ->
    Tracing.archive * (O.operation, O.response) Spec.History.event list
end
