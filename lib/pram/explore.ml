(* Schedule exploration (bounded model checking): naive, DPOR-pruned,
   bounded, and randomized, behind one entry point, [search ~way].

   Because executions are deterministic functions of their schedules
   ([Driver.replay]), the set of all behaviours of a program up to a step
   bound is exactly the set of maximal schedules — enumerable by DFS.
   [search] runs a user check on each completed execution it visits; the
   test suite uses this to verify linearizability of the paper's
   algorithms over EVERY interleaving of small configurations, not just
   random samples.  A [Way.t] selects how:

   - [Naive] enumerates every maximal schedule in one sequential DFS
     under a global [max_schedules].  This is the right tool when the
     user check counts schedules (violation censuses) or when crash
     branches are injected — it is the only systematic way that crashes.

   - [Systematic] is dynamic partial-order reduction in the style of
     Flanagan and Godefroid (POPL 2005) with sleep sets (Godefroid's
     thesis; see also dejafu's BPOR).  Two accesses are DEPENDENT iff
     they touch the same register and at least one is a write; schedules
     that only reorder independent accesses reach the same final state,
     so it suffices to explore one representative per Mazurkiewicz
     trace.  After each step of the search the explorer computes
     backtrack points from the happens-before relation of the executed
     prefix (tracked with vector clocks) and only revisits schedules that
     flip a dependent pair; sleep sets additionally prune branches whose
     first step commutes with an already-explored sibling.  On the
     paper's algorithms this cuts schedule counts by orders of magnitude,
     making 3-4 process configurations checkable.  Schedule bounds
     ([Bounds.t]: pre-emption) filter branches by a prefix-invariant
     predicate; a bounded search is sound for BUG FINDING (every
     execution it visits is a real execution) but NOT exhaustive — a
     violation needing more pre-emptions than the bound will be missed.

   - [Uniform] / [Weighted] sample maximal schedules at random.  They
     check real, complete executions, so unlike DPOR they can also catch
     violations living purely in the real-time order of independent
     accesses.

   Both systematic ways are one depth-first walker ([walk]): [Naive] is
   the walk without reduction, [Systematic] the walk with it.
   Systematic search is parallel across domains: the schedule tree is
   partitioned into a deterministic frontier of prefixes, expanded
   breadth-first under the walker's own dependency and sleep rules, and
   each subtree is walked as an independent task whose backtrack points
   are clamped to the subtree.  The frontier shape is independent of
   [jobs], so coverage counts and failures are identical for any job
   count.  Random ways shard their sample indices the same way; each
   sample's RNG is seeded by (seed, index), so the set of sampled
   schedules is also independent of the sharding.

   Soundness caveat (inherent to any POR): DPOR preserves properties
   that are invariant under commuting independent accesses.  Final
   states and operation results are; the *real-time order* of recorded
   history events attached to independent accesses of different
   processes is not, so a history that is non-linearizable only due to
   the relative order of two commuting boundary events may be reported
   via a different (equivalent, still-failing-or-passing) representative.
   Every state-dependent violation is still found, and [Naive] remains
   the ground truth; the test suite compares both ways on the paper's
   algorithms.

   A program is [unit -> 'r run]: every driver the explorer creates
   starts its own run, which allocates that execution's registers and
   whatever state its check reads, and each leaf is judged by the check
   of the run that started its driver. *)

(* --- ways and bounds -------------------------------------------------------- *)

module Bounds = struct
  (* Schedule bounds in the style of dejafu's SCT layer.  Every bound is
     a PREFIX-INVARIANT predicate: if a schedule is within bounds, so is
     each of its prefixes.  That lets the explorer apply the bound as a
     branch filter at every node — once a prefix is out of bounds, the
     whole subtree is pruned (and counted in [cov_pruned]). *)
  type t = {
    bd_preempt : int option;
        (* max pre-emptive context switches: steps by p while the
           previously stepped process is still runnable *)
  }

  let none = { bd_preempt = None }

  (* dejafu's defaultBounds: a small pre-emption bound catches almost
     all bugs in practice (Musuvathi & Qadeer).  dejafu's length and
     fairness bounds are left out: the simulator runs only terminating
     programs, and wait-free programs have no busy-wait loops to cut. *)
  let default = { bd_preempt = Some 3 }
  let make ?preempt () = { bd_preempt = preempt }
  let is_none b = b.bd_preempt = None

  let to_string b =
    match b.bd_preempt with
    | None -> "unbounded"
    | Some k -> Printf.sprintf "preempt<=%d" k
end

module Way = struct
  (* How to explore the schedule space (dejafu's [Way]): every schedule,
     one per trace under bounds, or by seeded random sampling.
     [Weighted] biases each decision towards staying on the previously
     stepped process ([bias] >= 1 is the relative weight of not
     switching), producing near-serial schedules that catch
     real-time-order bugs uniform sampling almost never hits. *)
  type t =
    | Naive
    | Systematic of Bounds.t
    | Uniform of { seed : int; count : int }
    | Weighted of { seed : int; count : int; bias : float }

  let systematic = Systematic Bounds.none

  let to_string = function
    | Naive -> "naive"
    | Systematic b -> Printf.sprintf "systematic(%s)" (Bounds.to_string b)
    | Uniform { seed; count } ->
        Printf.sprintf "uniform(seed=%d,count=%d)" seed count
    | Weighted { seed; count; bias } ->
        Printf.sprintf "weighted(seed=%d,count=%d,bias=%g)" seed count bias
end

type coverage = {
  cov_explored : int;  (** completed executions visited (incl. samples) *)
  cov_pruned : int;
      (** branches cut by bounds or sleep sets (a lower bound on skipped
          subtrees, not on skipped schedules) *)
  cov_sampled : int;  (** random samples drawn (0 for systematic ways) *)
  cov_tasks : int;  (** parallel subtree/shard tasks the search ran *)
}

type outcome = {
  explored : int;  (** completed executions visited *)
  failures : int list list;
      (** schedules whose completed execution failed the check *)
  failure_tags : string list;
      (** provenance tag per failure, aligned with [failures]
          (e.g. ["sample=137"]); empty when untagged *)
  truncated : bool;  (** true if [max_schedules] stopped the search early *)
  pending : int;
      (** branch points abandoned because of [max_schedules]; a lower
          bound on the number of unexplored schedules (0 iff the search
          completed) *)
  way : Way.t;  (** the way that produced this outcome *)
  coverage : coverage;
}

let ok outcome = outcome.failures = [] && not outcome.truncated

(* --- encoded schedules ----------------------------------------------------

   An action in an encoded schedule is an int: [p >= 0] steps process p;
   [-1 - p] crashes process p.  Schedules returned in [failures] use this
   encoding (pure step schedules are their own encoding). *)

let apply_action d a =
  if a >= 0 then Driver.step d a else Driver.crash d (-1 - a)

(* Apply an encoded schedule tolerantly to an existing driver — actions
   targeting processes that are no longer runnable are dropped.
   [on_crash] observes each applied crash (the tracing layer records
   crash events through it; the driver observer only sees accesses).
   Returns the applied prefix. *)
let apply_encoded ?(on_crash = fun _ -> ()) d enc =
  let applied = ref [] in
  List.iter
    (fun a ->
      if a >= 0 then begin
        if Driver.runnable d a then begin
          Driver.step d a;
          applied := a :: !applied
        end
      end
      else begin
        let p = -1 - a in
        if Driver.runnable d p then begin
          Driver.crash d p;
          on_crash p;
          applied := a :: !applied
        end
      end)
    enc;
  List.rev !applied

(* Run every surviving process to completion in pid order, so the
   execution becomes maximal (comparable to the explorer's leaves).
   Returns the steps taken. *)
let complete ?(completion_fuel = 1_000_000) d =
  let applied = ref [] in
  let fuel = ref completion_fuel in
  for p = 0 to Driver.procs d - 1 do
    while Driver.runnable d p do
      if !fuel = 0 then
        failwith
          "Explore.complete: completion fuel exhausted (program not \
           wait-free?)";
      decr fuel;
      Driver.step d p;
      applied := p :: !applied
    done
  done;
  List.rev !applied

(* Fresh driver + apply_encoded + complete: the normalized replay used
   by shrinking and counterexample rendering. *)
let replay_encoded ?observer ?on_crash ?completion_fuel ~procs setup enc =
  let d = Driver.create ?observer ~procs setup in
  let applied = apply_encoded ?on_crash d enc in
  let tail = complete ?completion_fuel d in
  (d, applied @ tail)

(* One execution of a program: the body its driver runs and the check
   that judges the completed execution.  A program is [unit -> 'r run];
   each call allocates one execution's registers and whatever state its
   check reads, so a check sees its own execution and no other. *)
type 'r run = {
  body : int -> 'r;
  check : 'r Driver.t -> int list -> bool;
  pp_history : (Format.formatter -> unit -> unit) option;
}

let instance ~check setup () = { body = setup (); check; pp_history = None }

(* [with_run program start] hands [start] (a driver constructor:
   [Driver.create], [sample_schedule] or [replay_encoded], partially
   applied) a setup that calls [program] once, from inside the driver's
   own setup call, after the driver has reset register ids.  It returns
   that call's run next to [start]'s result, so a driver and the run
   that judges it always come out together. *)
let with_run program start =
  let made = ref None in
  let x =
    start (fun () ->
        let r = program () in
        made := Some r;
        r.body)
  in
  (Option.get !made, x)

let start ~procs program = with_run program (Driver.create ~procs)

(* A fresh run of [program] with the encoded actions [acts] applied in
   order: how the walker rebuilds a node for each child after the first,
   and how the frontier reaches its prefixes. *)
let replay ~procs program acts =
  let ((_, d) as rd) = start ~procs program in
  List.iter (fun a -> apply_action d a) acts;
  rd

(* --- the schedule-tree walker ----------------------------------------------

   [walk] is the one depth-first traversal of the schedule tree; both
   systematic ways run it.  A node is a driver at the state its path
   reaches.  The node's first child consumes that driver and every later
   child [replay]s the path on a fresh run, costing O(length) per child;
   the leftmost spine is never replayed.  Four rules decide the tree,
   each written once and shared with the frontier ([expand_frontier]):
   [dependent] (the conflict relation), [wake] (sleep inheritance),
   [preempts_after]/[within] (the pre-emption bound) and [replay].

   [Way.Naive] walks without reduction: every runnable process branches,
   nothing sleeps, and while [max_crashes] lasts a crash of each runnable
   process branches too.  [Way.Systematic] walks as the classic recursion
   of Flanagan-Godefroid, adapted to replay-based state reconstruction:

   - Every fired event gets a FRAME carrying its vector clock (the
     happens-before closure of program order plus dependent-access
     order).  A write to a register dominates every earlier access to
     it, so per-register clock bookkeeping reduces to "join the last
     write, plus the reads since it when writing".

   - At each node, for every enabled process p, find the most recent
     path event e that is dependent with p's next event and NOT
     happens-before it: the two are a race, so the state before e must
     also try p (backtrack sets, keyed by depth, mutated by
     descendants).

   - Sleep sets: a process whose next event was already explored from an
     ancestor stays asleep (its schedules are redundant) until a
     dependent event wakes it.  A node all of whose enabled processes
     sleep is pruned.

   - The bounds filter branches: a step outside them is counted as
     pruned and NOT put to sleep for its siblings (it was cut, not
     covered).  A bounded walk is therefore sound for bug finding (every
     visited execution is real) but not exhaustive.

   - A frontier task's frozen prefix is walked one forced step per node,
     with no branch point and so no backtrack set: races whose pre-state
     lies in it are ignored, which is sound only because the frontier
     makes a sibling task of every enabled, non-slept choice at those
     depths.  A prefix outside the bounds makes the whole task one pruned
     branch.

   Lookahead never forces an unstarted process (that would run its
   prologue earlier than the naive walk does, perturbing recorded
   histories): an unstarted process's next event is [Unknown] and treated
   as dependent with every access — conservative, which is always sound
   for DPOR. *)

type event =
  | Unknown  (* not started: finding out would run its prologue *)
  | Done  (* completes without another access *)
  | Access of Trace.kind * int  (* kind and register id *)

(* Two events conflict iff they touch the same register and at least one
   writes it.  A [Done] step touches nothing; an [Unknown] one may touch
   anything. *)
let dependent a b =
  match (a, b) with
  | Done, _ | _, Done -> false
  | Unknown, _ | _, Unknown -> true
  | Access (ka, ra), Access (kb, rb) ->
      ra = rb && (ka = Trace.Write || kb = Trace.Write)

(* Sleep inheritance: the entries (pid, next event) of [sleep] that stay
   asleep once event [e] fires — those independent of it. *)
let wake sleep e = List.filter (fun (_, e') -> not (dependent e' e)) sleep

(* [p]'s next event, starting [p] if it has not started.  Used only on
   the process about to step (or on the frontier's throwaway replicas),
   so a checked execution's prologue still runs immediately before its
   first step fires — the same instant the naive walk would run it. *)
let next_event d p =
  match Driver.pending d p with
  | Some v -> Access (v.Driver.v_kind, v.Driver.v_reg_id)
  | None -> Done

(* [p]'s next event as far as it is known without starting [p]. *)
let peek d p =
  match Driver.lookahead d p with
  | Driver.Lk_unknown -> Unknown
  | Driver.Lk_done -> Done
  | Driver.Lk_access v -> Access (v.Driver.v_kind, v.Driver.v_reg_id)

(* The pre-emption count once [p] steps from a node whose runnable
   processes are the bitmask [enabled], when the previous step was by
   [last] ([-1] at the root) after [preempts] pre-emptions: a step
   pre-empts when it switches away from a [last] that is still
   runnable. *)
let preempts_after ~enabled ~last ~preempts p =
  if last >= 0 && p <> last && enabled land (1 lsl last) <> 0 then preempts + 1
  else preempts

(* Whether a step that takes the pre-emption count from [preempts] to
   [n] stays within [bounds]; one that pre-empts nothing always does. *)
let within bounds ~preempts n =
  n = preempts
  || match bounds.Bounds.bd_preempt with None -> true | Some k -> n <= k

type frame = {
  f_pid : int;
  f_event : event;  (* what fired: [Done] or an [Access] *)
  f_clock : int array;
  f_pidx : int;  (* 1-based index among f_pid's events *)
}

let rec mask = function [] -> 0 | p :: ps -> (1 lsl p) lor mask ps

let popcount m =
  let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
  go m 0

let lowest_bit m =
  let rec go m i = if m land 1 <> 0 then i else go (m lsr 1) (i + 1) in
  go m 0

(* Per-task result of one walk. *)
type task_result = {
  t_explored : int;
  t_pruned : int;
  t_pending : int;
  t_failures : int list list;  (* in discovery order *)
}

(* One walk of the subtree below [prefix], whose root sleeps on [sleep],
   with the reduction [way] asks for.  [max_schedules] bounds the leaves
   it checks. *)
let walk ~way ~max_schedules ~max_crashes ~procs ~program ~prefix ~sleep =
  let reduce, bounds =
    match way with
    | Way.Systematic b -> (true, b)
    | Way.Naive | Way.Uniform _ | Way.Weighted _ -> (false, Bounds.none)
  in
  let explored = ref 0 and pruned = ref 0 and pending = ref 0 in
  let failures = ref [] in
  (* backtrack set, entry sleep set and enabled set (bitmasks of pids)
     of the branch point at each depth of the current path *)
  let bt : (int, int ref * int * int) Hashtbl.t = Hashtbl.create 64 in
  let zero = Array.make procs 0 in
  let own frames p = List.find_opt (fun f -> f.f_pid = p) frames in
  (* the frame of [p]'s event [e] firing after [frames] (newest first) *)
  let push frames p e =
    let c, pidx =
      match own frames p with
      | Some f -> (Array.copy f.f_clock, f.f_pidx + 1)
      | None -> (Array.copy zero, 1)
    in
    let join other =
      for i = 0 to procs - 1 do
        if other.(i) > c.(i) then c.(i) <- other.(i)
      done
    in
    (match e with
    | Access (k, reg) ->
        let rec scan = function
          | [] -> ()
          | { f_event = Access (Trace.Write, r); f_clock; _ } :: _ when r = reg
            ->
              join f_clock
          | { f_event = Access (Trace.Read, r); f_clock; _ } :: rest
            when r = reg ->
              if k = Trace.Write then join f_clock;
              scan rest
          | _ :: rest -> scan rest
        in
        scan frames
    | Unknown | Done -> ());
    c.(p) <- pidx;
    { f_pid = p; f_event = e; f_clock = c; f_pidx = pidx }
  in
  (* Race detection for enabled [p] with next event [e] at [depth]: the
     most recent path event dependent with [e], by another process and
     not happens-before it, marks a backtrack point at its pre-state.  If
     [p] is asleep there, adding [p] would run nothing new, and the races
     that running [p] first would expose are never seen — so the
     pre-state backtracks on every enabled process instead (a full
     sleep-set search of that node). *)
  let race frames depth p e =
    let cp = match own frames p with Some f -> f.f_clock | None -> zero in
    let rec scan i = function
      | [] -> ()
      | f :: rest ->
          if f.f_pid <> p && dependent f.f_event e && cp.(f.f_pid) < f.f_pidx
          then (
            match Hashtbl.find_opt bt i with
            | Some (todo, asleep, enabled) ->
                todo :=
                  !todo
                  lor if asleep land (1 lsl p) <> 0 then enabled else 1 lsl p
            | None -> ())
          else scan (i - 1) rest
    in
    scan (depth - 1) frames
  in
  (* [p]'s next event, looked up only when reducing *)
  let event d p = if reduce then next_event d p else Done in
  (* a driver at the state [acts] reaches: [rd] itself while [fresh] *)
  let at fresh rd acts =
    if fresh then rd else replay ~procs program (List.rev acts)
  in
  (* [acts]: the path's encoded actions, newest first; [frames]: their
     frames (reduction only); [forced]: what is left of the frozen
     prefix *)
  let rec node depth acts frames ((run, d) as rd) ~forced ~sleep ~last
      ~preempts ~crashes =
    match forced with
    | p :: forced ->
        let enabled = mask (Driver.runnable_list d) in
        let n = preempts_after ~enabled ~last ~preempts p in
        if enabled land (1 lsl p) <> 0 && within bounds ~preempts n then
          child depth acts frames rd p (event d p) ~forced ~sleep ~preempts:n
            ~crashes
        else incr pruned
    | [] -> (
        if !explored >= max_schedules then incr pending
        else
          match Driver.runnable_list d with
          | [] ->
              incr explored;
              let sched = List.rev acts in
              if not (run.check d sched) then failures := sched :: !failures
          | runnable ->
              branch depth acts frames rd runnable ~sleep ~last ~preempts
                ~crashes)
  (* Step [p], whose next event is [e], on [rd], a driver at the parent's
     state, and walk the child, which sleeps on [sleep]. *)
  and child depth acts frames ((_, d) as rd) p e ~forced ~sleep ~preempts
      ~crashes =
    let frames = if reduce then push frames p e :: frames else frames in
    Driver.step d p;
    node (depth + 1) (p :: acts) frames rd ~forced ~sleep ~last:p ~preempts
      ~crashes
  and branch depth acts frames ((_, d) as rd) runnable ~sleep ~last ~preempts
      ~crashes =
    let enabled = mask runnable in
    let asleep = mask (List.map fst sleep) in
    if reduce then
      List.iter
        (fun p ->
          race frames depth p
            (match List.assoc_opt p sleep with Some e -> e | None -> peek d p))
        runnable;
    if enabled land lnot asleep = 0 then
      (* sleep-blocked: every continuation reorders independent events of
         an execution already explored *)
      incr pruned
    else begin
      (* the naive walk tries every process; DPOR starts from the lowest
         awake one and lets races add the rest *)
      let todo =
        ref
          (if reduce then
             1 lsl List.find (fun p -> asleep land (1 lsl p) = 0) runnable
           else enabled)
      in
      if reduce then Hashtbl.replace bt depth (todo, asleep, enabled);
      let crash_todo = ref (if crashes < max_crashes then enabled else 0) in
      (* [closed]: tried, cut or asleep on entry; [slept]: the sleep set
         the next step child inherits from; [fresh]: no child has
         consumed [rd] yet *)
      let closed = ref asleep and slept = ref sleep and fresh = ref true in
      let more = ref true in
      while !more do
        let steps = !todo land lnot !closed land enabled in
        if steps lor !crash_todo = 0 then more := false
        else if !explored >= max_schedules then begin
          pending := !pending + popcount steps + popcount !crash_todo;
          more := false
        end
        else if steps <> 0 then begin
          let p = lowest_bit steps in
          closed := !closed lor (1 lsl p);
          let n = preempts_after ~enabled ~last ~preempts p in
          if within bounds ~preempts n then begin
            let ((_, d') as rd') = at !fresh rd acts in
            fresh := false;
            let e = event d' p in
            child depth acts frames rd' p e ~forced:[]
              ~sleep:(if reduce then wake !slept e else [])
              ~preempts:n ~crashes;
            if reduce then slept := (p, e) :: !slept
          end
          else
            (* cut, not covered: it stays awake for its siblings *)
            incr pruned
        end
        else begin
          let p = lowest_bit !crash_todo in
          crash_todo := !crash_todo land lnot (1 lsl p);
          let ((_, d') as rd') = at !fresh rd acts in
          fresh := false;
          Driver.crash d' p;
          node (depth + 1) ((-1 - p) :: acts) frames rd' ~forced:[] ~sleep:[]
            ~last ~preempts ~crashes:(crashes + 1)
        end
      done;
      if reduce then Hashtbl.remove bt depth
    end
  in
  node 0 [] [] (start ~procs program) ~forced:prefix ~sleep ~last:(-1)
    ~preempts:0 ~crashes:0;
  {
    t_explored = !explored;
    t_pruned = !pruned;
    t_pending = !pending;
    t_failures = List.rev !failures;
  }

(* --- random schedule sampling ----------------------------------------------

   One sample = one maximal schedule drawn decision-by-decision.  The
   RNG is seeded by (way seed, sample index), so sample [i] is the same
   schedule no matter how samples are sharded across tasks or domains —
   and a recorded (seed, index) pair replays byte-identically. *)

let weighted_pick rng ~bias ~last runnable =
  match runnable with
  | [ p ] -> p
  | _ ->
      let weight p = if p = last then bias else 1.0 in
      let total = List.fold_left (fun a p -> a +. weight p) 0.0 runnable in
      let r = Random.State.float rng total in
      let rec pick acc = function
        | [] -> List.hd (List.rev runnable)
        | p :: rest ->
            let acc = acc +. weight p in
            if r < acc then p else pick acc rest
      in
      pick 0.0 runnable

let sample_crash_prob = 0.03

let sample_schedule ?(max_crashes = 0) ~way ~index ~procs setup =
  let seed, bias =
    match way with
    | Way.Uniform { seed; _ } -> (seed, 1.0)
    | Way.Weighted { seed; bias; _ } -> (seed, Float.max 1e-6 bias)
    | Way.Naive | Way.Systematic _ ->
        invalid_arg "Explore.sample_schedule: systematic ways have no sampler"
  in
  let rng = Random.State.make [| 0x5eed; seed; index |] in
  let d = Driver.create ~procs setup in
  let enc_rev = ref [] in
  let crashes = ref 0 in
  let last = ref (-1) in
  let fuel = ref 1_000_000 in
  let rec go () =
    match Driver.runnable_list d with
    | [] -> ()
    | runnable ->
        if !fuel = 0 then
          failwith
            "Explore.sample_schedule: step budget exhausted (program not \
             wait-free?)";
        decr fuel;
        if
          !crashes < max_crashes
          && Random.State.float rng 1.0 < sample_crash_prob
        then begin
          let victim =
            List.nth runnable (Random.State.int rng (List.length runnable))
          in
          Driver.crash d victim;
          incr crashes;
          enc_rev := (-1 - victim) :: !enc_rev
        end
        else begin
          let p = weighted_pick rng ~bias ~last:!last runnable in
          Driver.step d p;
          last := p;
          enc_rev := p :: !enc_rev
        end;
        go ()
  in
  go ();
  (List.rev !enc_rev, d)

(* --- parallel search -------------------------------------------------------- *)

(* Deterministic work-sharing pool: a fixed task array and an atomic
   next-task counter.  Idle workers grab the next unclaimed index, so
   load balances like a work-stealing deque with a single shared tail;
   results land in per-task slots (disjoint writes, publication via
   Domain.join).  Task ORDER in the array is fixed before any worker
   starts, which is what makes merged results independent of [jobs]. *)
let run_tasks ~jobs tasks f =
  let n = Array.length tasks in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let worker () =
    let rec go () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        results.(i) <- Some (f tasks.(i));
        go ()
      end
    in
    go ()
  in
  let extra = min (jobs - 1) (max 0 (n - 1)) in
  if extra <= 0 then worker ()
  else begin
    let domains = List.init extra (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join domains
  end;
  Array.map (function Some r -> r | None -> assert false) results

(* Partition the schedule tree into a frontier of independent subtree
   roots: the walker's branching without backtrack sets, breadth-first
   (every awake process branches at each node, left to right) down to
   roughly [frontier_target] nodes.  Each child sleeps on the node's
   sleep set plus its already-listed left siblings, passed through
   [wake] — exactly the sequential sleep-set discipline, so a subtree
   task may prune continuations whose traces a left-sibling task covers.
   Soundness does not require sibling tasks to run in order: it only
   requires that the covering task exists in the same search, which it
   does by construction (sleep-blocked nodes are the only ones dropped,
   and their traces are covered by the siblings that put their entries
   to sleep).  The expansion ignores the bounds: a child outside them
   still sleeps in its right siblings, though its task then prunes it
   whole, so a bounded search can lose in-bound traces that start with
   a right sibling and take the cut child later.

   The expansion itself is pure partitioning — no checks run here; the
   replica drivers it creates are throwaways (forcing prologues on them
   perturbs nothing observable). *)
let frontier_target = 48
let frontier_depth_cap = 64

let expand_frontier ~procs program =
  let pruned = ref 0 in
  let expand (prefix, sleep) =
    let _, d = replay ~procs program prefix in
    match Driver.runnable_list d with
    | [] -> `Leaf
    | runnable -> (
        match List.filter (fun p -> not (List.mem_assoc p sleep)) runnable with
        | [] ->
            incr pruned;
            `Blocked
        | awake ->
            let rec children acc earlier = function
              | [] -> List.rev acc
              | q :: rest ->
                  let e = next_event d q in
                  children
                    ((prefix @ [ q ], wake (sleep @ List.rev earlier) e) :: acc)
                    ((q, e) :: earlier) rest
            in
            `Children (children [] [] awake))
  in
  let rec grow rounds actives leaves =
    if
      actives = []
      || rounds >= frontier_depth_cap
      || List.length actives + List.length leaves >= frontier_target
    then (actives, leaves)
    else begin
      let actives', leaves' =
        List.fold_left
          (fun (acts, lvs) node ->
            match expand node with
            | `Leaf -> (acts, node :: lvs)
            | `Blocked -> (acts, lvs)
            | `Children cs -> (List.rev_append cs acts, lvs))
          ([], []) actives
      in
      grow (rounds + 1) (List.rev actives') (List.rev_append leaves leaves')
    end
  in
  let actives, leaves = grow 0 [ ([], []) ] [] in
  (Array.of_list (List.rev leaves @ actives), !pruned)

let search ~way ?(jobs = 1) ?(max_schedules = 1_000_000) ?(max_crashes = 0)
    ~procs program =
  let jobs = max 1 jobs in
  match way with
  | Way.Naive | Way.Systematic _ ->
      if procs >= Sys.int_size - 1 then
        invalid_arg "Explore.search: too many processes for the walker's bitmasks";
      (* the naive way is one walk from the root; a systematic way walks
         each frontier subtree as its own task *)
      let tasks, expansion_pruned =
        if way = Way.Naive then ([| ([], []) |], 0)
        else begin
          if max_crashes > 0 then
            invalid_arg
              "Explore.search: DPOR does not support crash injection; use \
               Way.Naive or a random way";
          expand_frontier ~procs program
        end
      in
      let results =
        run_tasks ~jobs tasks (fun (prefix, sleep) ->
            (* each subtree gets the full budget: a shared countdown
               would make results depend on worker timing *)
            walk ~way ~max_schedules ~max_crashes ~procs ~program ~prefix
              ~sleep)
      in
      let sum f = Array.fold_left (fun a r -> a + f r) 0 results in
      let explored = sum (fun r -> r.t_explored) in
      let pending = sum (fun r -> r.t_pending) in
      let failures = Array.to_list results |> List.concat_map (fun r -> r.t_failures) in
      let failure_tags =
        if way = Way.Naive then []
        else
          Array.to_list results
          |> List.mapi (fun i r ->
                 List.map (fun _ -> Printf.sprintf "task=%d" i) r.t_failures)
          |> List.concat
      in
      {
        explored;
        failures;
        failure_tags;
        truncated = pending > 0;
        pending;
        way;
        coverage =
          {
            cov_explored = explored;
            cov_pruned = expansion_pruned + sum (fun r -> r.t_pruned);
            cov_sampled = 0;
            cov_tasks = Array.length tasks;
          };
      }
  | Way.Uniform { count; _ } | Way.Weighted { count; _ } ->
      let count = max 0 count in
      let chunk = max 1 ((count + 63) / 64) in
      let ntasks = if count = 0 then 0 else (count + chunk - 1) / chunk in
      let tasks =
        Array.init ntasks (fun j -> (j * chunk, min count ((j + 1) * chunk)))
      in
      let results =
        run_tasks ~jobs tasks (fun (lo, hi) ->
            let fails = ref [] in
            for index = lo to hi - 1 do
              let run, (enc, d) =
                with_run program
                  (sample_schedule ~max_crashes ~way ~index ~procs)
              in
              if not (run.check d enc) then fails := (index, enc) :: !fails
            done;
            List.rev !fails)
      in
      let fails = Array.to_list results |> List.concat in
      {
        explored = count;
        failures = List.map snd fails;
        failure_tags =
          List.map (fun (i, _) -> Printf.sprintf "sample=%d" i) fails;
        truncated = false;
        pending = 0;
        way;
        coverage =
          {
            cov_explored = count;
            cov_pruned = 0;
            cov_sampled = count;
            cov_tasks = ntasks;
          };
      }

(* --- counterexample shrinking ----------------------------------------------

   Delta-debugging over encoded schedules: repeatedly delete chunks
   (halving sizes down to single actions), renormalize to a maximal
   schedule via [replay_encoded], and keep any candidate that still
   fails the check with a strictly smaller (length, context switches,
   lexicographic) measure — the strict decrease guarantees termination
   at a deletion-local minimum. *)

let context_switches enc =
  let rec go prev acc = function
    | [] -> acc
    | a :: rest ->
        let p = if a >= 0 then a else -1 - a in
        go p (if p <> prev && prev >= 0 then acc + 1 else acc) rest
  in
  go (-1) 0 enc

(* [replay_encoded] on a fresh run of [program]. *)
let replay_run ~procs program enc =
  with_run program (fun setup -> replay_encoded ~procs setup enc)

let shrink ?(max_rounds = 10_000) ~procs program enc0 =
  let fails enc =
    let run, (d, norm) = replay_run ~procs program enc in
    if run.check d norm then None else Some norm
  in
  let measure enc = (List.length enc, context_switches enc, enc) in
  match fails enc0 with
  | None -> enc0 (* not a failing schedule: nothing to shrink *)
  | Some start ->
      let cur = ref start in
      let rounds = ref 0 in
      let improved = ref true in
      while !improved && !rounds < max_rounds do
        incr rounds;
        improved := false;
        let arr = Array.of_list !cur in
        let n = Array.length arr in
        let best = measure !cur in
        (* candidate: delete arr[off .. off+size-1] *)
        let try_delete off size =
          let cand =
            List.filteri (fun i _ -> i < off || i >= off + size) !cur
          in
          match fails cand with
          | Some norm when compare (measure norm) best < 0 ->
              cur := norm;
              improved := true;
              true
          | _ -> false
        in
        let rec sizes size =
          if size >= 1 && not !improved then begin
            let rec offsets off =
              if off < n && not !improved then
                if try_delete off size then () else offsets (off + size)
            in
            offsets 0;
            sizes (size / 2)
          end
        in
        if n > 0 then sizes (max 1 (n / 2))
      done;
      !cur

(* --- linearizability checking front end ------------------------------------ *)

type counterexample = {
  cex_schedule : int list;  (** the first failing schedule found *)
  cex_shrunk : int list;  (** its deletion-minimal shrink (still failing) *)
  cex_way : string;
      (** provenance: way description plus sample/task tag, enough to
          re-derive the failing schedule deterministically *)
  cex_message : string;  (** rendered schedule + failing history *)
}

type report = {
  r_outcome : outcome;
  r_counterexample : counterexample option;
}

let report_ok r = ok r.r_outcome && r.r_counterexample = None

(* Shrink + replay a failing schedule and render the counterexample
   with the history of the shrunk execution's own run. *)
let build_counterexample ~procs program ~do_shrink ~way_line first =
  let shrunk = if do_shrink then shrink ~procs program first else first in
  let run, (d, norm) = replay_run ~procs program shrunk in
  let still_fails = not (run.check d norm) in
  let message =
    Format.asprintf
      "@[<v>%s execution, %d action(s) (shrunk from %d):@,\
       way: %s@,\
       schedule: @[<hov>%a@]%a%s@]"
      (if still_fails then "non-linearizable" else "UNSTABLE counterexample")
      (List.length norm) (List.length first) way_line
      Trace.pp_encoded_schedule norm
      (fun ppf () ->
        match run.pp_history with
        | None -> ()
        | Some pp -> Format.fprintf ppf "@,history:@,  @[<v>%a@]" pp ())
      ()
      (if still_fails then ""
       else
         "\n(replaying the shrunk schedule no longer fails — \
          non-deterministic check?)")
  in
  { cex_schedule = first; cex_shrunk = shrunk; cex_way = way_line;
    cex_message = message }

let search_check ~way ?jobs ?(shrink = true) ?max_schedules ?max_crashes
    ~procs program =
  let outcome = search ~way ?jobs ?max_schedules ?max_crashes ~procs program in
  match outcome.failures with
  | [] -> { r_outcome = outcome; r_counterexample = None }
  | first :: _ ->
      let way_line =
        match outcome.failure_tags with
        | tag :: _ -> Way.to_string way ^ " " ^ tag
        | [] -> Way.to_string way
      in
      let cex =
        build_counterexample ~procs program ~do_shrink:shrink ~way_line first
      in
      { r_outcome = outcome; r_counterexample = Some cex }

let pp_report ppf r =
  let o = r.r_outcome in
  let cov = o.coverage in
  Format.fprintf ppf "@[<v>%d schedule(s) explored (%s%s)%s%s@]" o.explored
    (Way.to_string o.way)
    (if cov.cov_pruned > 0 || cov.cov_sampled > 0 || cov.cov_tasks > 1 then
       Printf.sprintf "; %d pruned, %d sampled, %d task(s)" cov.cov_pruned
         cov.cov_sampled cov.cov_tasks
     else "")
    (if o.truncated then
       Printf.sprintf ", TRUNCATED with >=%d branch(es) pending" o.pending
     else "")
    (match r.r_counterexample with
    | None -> ", no violation"
    | Some c -> ":\n" ^ c.cex_message)
