(* The per-process execution context (see runtime.mli for the design).

   Before this module existed, each cross-cutting concern had its own
   plumbing: [pid] threaded through every call, [?journal] optionals on
   every traced operation, and per-pid RNG memoized in [Workload].
   [Ctx] bundles them once per process; algorithms mint a handle from it
   at session start and the per-call surface carries no cross-cutting
   arguments at all. *)

(* One domain-local pid for every native instrumentation consumer (the
   journal's [Instrument] feed and the seqlock-retry hook); [run_domains]
   sets it once per domain, which attributes both. *)
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
    journal : Tracing.Journal.t option;
    telemetry : Telemetry.Counters.t option;
  }

  let none = { journal = None; telemetry = None }
  let make ?journal ?telemetry () = { journal; telemetry }
  let observer t = Option.map Tracing.Journal.observer t.journal
end

(* The journal is the one consumer of a wrapped backend's access stream;
   registers are created unobserved. *)
module Instrument (M : Pram.Memory.VERSIONED) (S : sig
  val sink : Sink.t
end) =
  Pram.Memory.Hooked
    (M)
    (struct
      let on_create ~reg_id:_ ~reg_name:_ = ()

      let access kind ~reg_id ~reg_name =
        match S.sink.Sink.journal with
        | None -> ()
        | Some j ->
            Tracing.Journal.access j ~pid:(current_pid ()) ~kind ~reg_id
              ~reg_name

      let on_read = access Pram.Trace.Read
      let on_write = access Pram.Trace.Write
    end)

module Ctx = struct
  type t = {
    pid : int;
    sink : Sink.t;
    seed : int;
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
    { pid; sink; seed; traced = Option.is_some sink.Sink.journal; rng = None }

  let pid t = t.pid
  let telemetry t = t.sink.Sink.telemetry
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
    match t.sink.Sink.journal with
    | None -> f ()
    | Some j -> Tracing.Journal.with_span j ~pid:t.pid ~op f

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
