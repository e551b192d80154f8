(* The per-process execution context (see runtime.mli for the design).

   Before this module existed, each cross-cutting concern had its own
   plumbing: [pid] threaded through every call, [?journal] optionals on
   every traced operation, metrics via separately instantiated wrappers,
   and per-pid RNG memoized in [Workload].  [Ctx] bundles them once per
   process; algorithms mint a handle from it at session start and the
   per-call surface carries no cross-cutting arguments at all. *)

(* One domain-local pid for every instrumentation consumer.  Metrics and
   Tracing used to keep parallel copies of this key; with both feeds
   behind [Sink] a single key suffices — and [run_domains] sets it once
   per domain, which attributes both. *)
let pid_key = Domain.DLS.new_key (fun () -> 0)
let set_pid p = Domain.DLS.set pid_key p
let current_pid () = Domain.DLS.get pid_key

module Rng = struct
  (* The exact state formula [Workload] used, so seeded workloads
     generated before the refactor are bit-identical after it.  Folding
     the pid into the init array keeps scripts a pure function of
     (seed, pid) regardless of the order harnesses visit pids. *)
  let state ~seed ~pid = Random.State.make [| seed; pid; 0x5eed |]
end

module Sink = struct
  type t = {
    metrics : Metrics.Recorder.t option;
    journal : Tracing.Journal.t option;
    telemetry : Telemetry.Counters.t option;
  }

  let none = { metrics = None; journal = None; telemetry = None }
  let make ?metrics ?journal ?telemetry () = { metrics; journal; telemetry }

  let observer t =
    match (t.metrics, t.journal) with
    | None, None -> None
    | Some r, None -> Some (Metrics.Recorder.observer r)
    | None, Some j -> Some (Tracing.Journal.observer j)
    | Some r, Some j ->
        Some
          (fun a ->
            Metrics.Recorder.observer r a;
            Tracing.Journal.observer j a)

  let record_create t ~reg_id ~reg_name =
    match t.metrics with
    | None -> ()
    | Some r -> Metrics.Recorder.record_create r ~reg_id ~reg_name

  let record_access t ~pid ~kind ~reg_id ~reg_name =
    (match t.metrics with
    | None -> ()
    | Some r -> (
        match (kind : Pram.Trace.kind) with
        | Pram.Trace.Read ->
            Metrics.Recorder.record_read ~reg_id ~reg_name r ~pid
        | Pram.Trace.Write ->
            Metrics.Recorder.record_write ~reg_id ~reg_name r ~pid));
    match t.journal with
    | None -> ()
    | Some j -> Tracing.Journal.access j ~pid ~kind ~reg_id ~reg_name
end

module Instrument (M : Pram.Memory.VERSIONED) (S : sig
  val sink : Sink.t
end) =
  Pram.Memory.Hooked
    (M)
    (struct
      let on_create ~reg_id ~reg_name =
        Sink.record_create S.sink ~reg_id ~reg_name

      let on_read ~reg_id ~reg_name =
        Sink.record_access S.sink ~pid:(current_pid ())
          ~kind:Pram.Trace.Read ~reg_id ~reg_name

      let on_write ~reg_id ~reg_name =
        Sink.record_access S.sink ~pid:(current_pid ())
          ~kind:Pram.Trace.Write ~reg_id ~reg_name
    end)

module Ctx = struct
  type t = {
    pid : int;
    procs : int;
    sink : Sink.t;
    seed : int;
    quiet : bool;  (* no journal and no recorder *)
    traced : bool;  (* a journal *)
    mutable rng : Random.State.t option;
        (* lazily built so contexts that never draw randomness allocate
           no state; deterministic in (seed, pid), so laziness is not
           observable *)
  }

  let make ?(sink = Sink.none) ?(seed = 0) ~procs ~pid () =
    if procs <= 0 then invalid_arg "Runtime.Ctx.make: procs must be positive";
    if pid < 0 || pid >= procs then
      invalid_arg
        (Printf.sprintf "Runtime.Ctx.make: pid %d out of range 0..%d" pid
           (procs - 1));
    (* a grid that cannot attribute every pid fails here, not at the
       first cause some process reports *)
    (match sink.Sink.telemetry with
    | Some c when Telemetry.Counters.procs c < procs ->
        invalid_arg
          (Printf.sprintf
             "Runtime.Ctx.make: telemetry grid has %d pids, session has %d"
             (Telemetry.Counters.procs c) procs)
    | _ -> ());
    let traced = Option.is_some sink.Sink.journal in
    let quiet = (not traced) && Option.is_none sink.Sink.metrics in
    { pid; procs; sink; seed; quiet; traced; rng = None }

  let pid t = t.pid
  let procs t = t.procs
  let telemetry t = t.sink.Sink.telemetry
  let quiet t = t.quiet
  let traced t = t.traced

  let rng t =
    match t.rng with
    | Some st -> st
    | None ->
        let st = Rng.state ~seed:t.seed ~pid:t.pid in
        t.rng <- Some st;
        st

  let family ?sink ?seed ~procs () =
    Array.init procs (fun pid -> make ?sink ?seed ~procs ~pid ())

  (* Instrumentation helpers.  The no-sink path of each is one or two
     pattern matches and nothing else — no closure beyond what the
     caller already built, no access, no allocation. *)

  let span t ~op f =
    match (t.sink.Sink.journal, t.sink.Sink.metrics) with
    | None, None -> f ()
    | j, m -> (
        let inner () =
          match m with
          | None -> f ()
          | Some r -> Metrics.Recorder.with_span r ~pid:t.pid ~op f
        in
        match j with
        | None -> inner ()
        | Some jj -> Tracing.Journal.with_span jj ~pid:t.pid ~op inner)

  let annotate t note =
    match t.sink.Sink.journal with
    | None -> ()
    | Some j -> Tracing.Journal.annotate j ~pid:t.pid note

  let annotatef t fmt =
    match t.sink.Sink.journal with
    | None -> Printf.ikfprintf (fun () -> ()) () fmt
    | Some j ->
        Printf.ksprintf (fun s -> Tracing.Journal.annotate j ~pid:t.pid s) fmt

  (* One call per occurrence of a cause, counted and journaled once.
     Labelled, non-optional arguments: a call on a sink-less context
     builds nothing and is two pattern matches. *)
  let causes t ~family e n =
    (match t.sink.Sink.telemetry with
    | None -> ()
    | Some c -> Telemetry.Counters.add c ~pid:t.pid ~family e n);
    match t.sink.Sink.journal with
    | None -> ()
    | Some j -> Tracing.Journal.annotate j ~pid:t.pid (Telemetry.Event.name e)

  let cause t ~family e = causes t ~family e 1
end

(* The one harness that puts processes on domains.  [Pram.Native] sits
   below the telemetry library, so it exposes a mutable no-op seqlock
   hook instead of importing it; this is the one place that closes the
   loop, for exactly the span of the run.  A retry is attributed to the
   retrying domain's pid at family 0 (the hook cannot tell which
   object's register retried). *)
let run_domains ?(sink = Sink.none) ~procs body =
  Option.iter
    (fun c ->
      if Telemetry.Counters.procs c < procs then
        invalid_arg "Runtime.run_domains: telemetry grid narrower than procs";
      Pram.Native.on_seqlock_retry :=
        fun () ->
          Telemetry.Counters.record c ~pid:(current_pid ()) ~family:0
            Telemetry.Event.Seqlock_retry)
    sink.Sink.telemetry;
  Fun.protect
    ~finally:(fun () -> Pram.Native.on_seqlock_retry := fun () -> ())
    (fun () ->
      Pram.Native.run_parallel ~procs (fun pid ->
          set_pid pid;
          body pid))
