(** The asynchronous-PRAM execution engine.

    A driver runs [procs] asynchronous processes against simulated shared
    memory.  Each process is an effect-handler fiber: local computation is
    free, and every shared-memory access (performed through
    {!Memory.Sim}) suspends the process until the driver fires it.  One
    {!step} fires exactly one atomic read or write — the step unit of the
    paper's cost model — so any interleaving of atomic accesses (i.e. any
    adversary in the asynchronous PRAM model) can be realized by choosing
    which process to step next.

    Executions are deterministic functions of the schedule: re-running the
    same [setup] under the same step sequence reproduces the execution
    exactly.  {!replay} packages this, and is the basis for the
    lower-bound adversaries in {!Agreement}, which need a "what would
    process [p] return if it ran alone from here?" oracle. *)

type 'r t
(** A running execution whose processes each return a value of type ['r]. *)

type status =
  | Running  (** the process has a pending shared-memory access *)
  | Done  (** the process body returned *)
  | Halted  (** crashed by the scheduler; will never take another step *)

type pending_view = {
  v_kind : Trace.kind;
  v_reg_id : int;
  v_reg_name : string;
}
(** What a full-information adversary may observe about a process's next
    access: the kind of access and the register it targets. *)

exception Process_not_runnable of int

(** [create ~procs setup] starts an execution.  [setup ()] must allocate
    fresh shared registers and return the process body; it is called once
    per driver, so that every {!create} (and hence every {!replay}) gets
    its own memory.  Processes start lazily: the prologue before a
    process's first shared access runs (for free) at its first {!step} or
    when {!pending} first inspects it — so invocation events recorded by a
    process are stamped when the scheduler first gives it control, keeping
    real-time precedence between operations faithful.

    [observer] is called once per fired access, in firing order, with
    its {!Trace.access} record — the driver's one access feed, which the
    tracing journal and trace-collecting tests attach to.  Counting needs
    no observer: the driver itself meters every fired access ({!reads},
    {!writes}).  It must not perform shared-memory accesses of the
    simulated program. *)
val create :
  ?observer:(Trace.access -> unit) ->
  procs:int ->
  (unit -> int -> 'r) ->
  'r t

val procs : 'r t -> int
val status : 'r t -> int -> status
val pending : 'r t -> int -> pending_view option

type lookahead =
  | Lk_unknown  (** not started; finding out would run its prologue *)
  | Lk_access of pending_view  (** next access of a started process *)
  | Lk_done  (** finished or crashed: no further access *)

(** Like {!pending} but never forces a [Not_started] process, so
    prologues still run at first-{!step} time (history events stay
    faithful to the schedule).  Used by {!Explore}'s DPOR lookahead. *)
val lookahead : 'r t -> int -> lookahead
val result : 'r t -> int -> 'r option

(** The driver is the simulator's access meter: the reads and writes
    fired so far by one process, and their sum [steps = reads + writes]
    (the paper's per-process step complexity).  A process counts an
    access when the access fires, so a lazy start that finishes without
    one counts nothing. *)
val reads : 'r t -> int -> int

val writes : 'r t -> int -> int
val steps : 'r t -> int -> int

(** Accesses fired so far by all processes. *)
val total_steps : 'r t -> int
val runnable : 'r t -> int -> bool
val runnable_list : 'r t -> int list

(** [all_quiescent t] is [true] when no process can take another step
    (each is either [Done] or [Halted]). *)
val all_quiescent : 'r t -> bool

(** [step t p] fires process [p]'s pending access and resumes it until its
    next access or completion.
    @raise Process_not_runnable if [p] is [Done] or [Halted]. *)
val step : 'r t -> int -> unit

(** [crash t p] halts [p] forever (a no-op if [p] already finished). *)
val crash : 'r t -> int -> unit

(** The step sequence fired so far, oldest first.  Feeding it to {!replay}
    with the same [setup] reproduces the execution. *)
val schedule : 'r t -> int list

(** [run_solo t p] steps [p] repeatedly until it is no longer runnable.
    Returns [false] if [max_steps] ran out first — used as a watchdog when
    exercising implementations that might not be wait-free. *)
val run_solo : ?max_steps:int -> 'r t -> int -> bool

(** [replay ~procs setup sched] creates a fresh execution and fires
    [sched] in order. *)
val replay :
  ?observer:(Trace.access -> unit) ->
  procs:int ->
  (unit -> int -> 'r) ->
  int list ->
  'r t
