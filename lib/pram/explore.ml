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
     making 3-4 process configurations checkable.  Composable schedule
     bounds ([Bounds.t]: pre-emption, length) filter branches
     by a prefix-invariant predicate; a bounded search is sound for BUG
     FINDING (every execution it visits is a real execution) but NOT
     exhaustive — a violation needing more pre-emptions than the bound
     will be missed.

   - [Uniform] / [Weighted] sample maximal schedules at random.  They
     check real, complete executions, so unlike DPOR they can also catch
     violations living purely in the real-time order of independent
     accesses.

   Systematic search is parallel across domains: the schedule tree is
   partitioned into a deterministic frontier of prefixes (naive full
   branching with sleep-set seeding — each frontier node inherits the
   sleep entries of its already-covered left siblings, the standard
   Godefroid argument), and each subtree is explored by an independent
   DPOR instance whose backtrack points are clamped to the subtree
   (races reaching into the frozen prefix are ignored: the frontier
   already enumerates every enabled, non-slept choice at those depths).
   The frontier shape is independent of [jobs], so coverage counts and
   failures are identical for any job count.  Random ways shard their
   sample indices the same way; each sample's RNG is seeded by
   (seed, index), so the set of sampled schedules is also independent of
   the sharding.

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

   The enumeration replays the whole prefix for each extension, costing
   O(length) per node; the first child of every node consumes the
   current driver, so the leftmost spine is never replayed.  A program
   is [unit -> 'r run]: every driver the explorer creates starts its own
   run, which allocates that execution's registers and whatever state
   its check reads, and each leaf is judged by the check of the run
   that started its driver. *)

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
    bd_length : int option;  (* max schedule length *)
  }

  let none = { bd_preempt = None; bd_length = None }

  (* dejafu's defaultBounds: a small pre-emption bound catches almost
     all bugs in practice (Musuvathi & Qadeer); length off (the simulator
     already requires terminating programs).  dejafu's fairness bound is
     left out: it cuts busy-wait loops, and wait-free programs have
     none. *)
  let default = { bd_preempt = Some 3; bd_length = None }
  let make ?preempt ?length () = { bd_preempt = preempt; bd_length = length }
  let is_none b = b.bd_preempt = None && b.bd_length = None

  let to_string b =
    if is_none b then "unbounded"
    else
      String.concat ","
        (List.filter_map Fun.id
           [
             Option.map (Printf.sprintf "preempt<=%d") b.bd_preempt;
             Option.map (Printf.sprintf "length<=%d") b.bd_length;
           ])
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

(* --- naive exhaustive DFS ------------------------------------------------- *)

let naive ~max_schedules ~max_crashes ~procs program =
  let explored = ref 0 in
  let pending = ref 0 in
  let failures = ref [] in
  let replay actions_rev =
    let run, d = start ~procs program in
    List.iter (fun a -> apply_action d a) (List.rev actions_rev);
    (run, d)
  in
  let rec dfs actions_rev (run, d) crashes_used =
    if !explored >= max_schedules then incr pending
    else
      match Driver.runnable_list d with
      | [] ->
          incr explored;
          let sched = List.rev actions_rev in
          if not (run.check d sched) then failures := sched :: !failures
      | first :: rest ->
          (* the first child consumes [d]; every other child replays the
             prefix on a fresh run *)
          Driver.step d first;
          dfs (first :: actions_rev) (run, d) crashes_used;
          List.iter
            (fun p ->
              if !explored >= max_schedules then incr pending
              else begin
                let ((_, d') as rd) = replay actions_rev in
                Driver.step d' p;
                dfs (p :: actions_rev) rd crashes_used
              end)
            rest;
          if crashes_used < max_crashes then
            List.iter
              (fun p ->
                if !explored >= max_schedules then incr pending
                else begin
                  let ((_, d') as rd) = replay actions_rev in
                  Driver.crash d' p;
                  dfs ((-1 - p) :: actions_rev) rd (crashes_used + 1)
                end)
              (first :: rest)
  in
  dfs [] (start ~procs program) 0;
  {
    explored = !explored;
    failures = List.rev !failures;
    failure_tags = [];
    truncated = !pending > 0;
    pending = !pending;
    way = Way.Naive;
    coverage =
      {
        cov_explored = !explored;
        cov_pruned = 0;
        cov_sampled = 0;
        cov_tasks = 1;
      };
  }

(* --- DPOR with sleep sets --------------------------------------------------

   The classic recursion of Flanagan-Godefroid, adapted to replay-based
   state reconstruction:

   - Every executed access gets a FRAME carrying its vector clock (the
     happens-before closure of program order plus dependent-access
     order).  A write to a register dominates every earlier access to
     it, so per-register clock bookkeeping reduces to "join the last
     write, plus the reads since it when writing".

   - At each node, for every enabled process p whose next access is
     known, find the most recent prefix event e that is dependent with
     it and NOT happens-before p's next access: the two are a race, so
     the state before e must also try p ([backtrack] sets, keyed by
     depth, mutated by descendants).

   - Sleep sets: a process whose next transition was already explored
     from an ancestor stays asleep (its schedules are redundant) until a
     dependent access wakes it.  A node all of whose enabled transitions
     sleep is pruned without counting.

   Lookahead never forces an unstarted process (that would run its
   prologue earlier than the naive explorer does, perturbing recorded
   histories): an unstarted process's next access is Unknown and treated
   as dependent with everything — conservative, which is always sound
   for DPOR. *)

type pend =
  | P_unknown  (* process not started: next access unknown *)
  | P_done  (* process will complete without another access *)
  | P_acc of Trace.kind * int

type frame = {
  f_pid : int;
  f_kind : Trace.kind option;  (* None: free completion step *)
  f_reg : int;
  f_clock : int array;
  f_pidx : int;  (* 1-based index among f_pid's accesses *)
}

let lookahead_pend d p =
  match Driver.lookahead d p with
  | Driver.Lk_unknown -> P_unknown
  | Driver.Lk_done -> P_done
  | Driver.Lk_access pv -> P_acc (pv.Driver.v_kind, pv.Driver.v_reg_id)

(* Forces the process to start if needed; only used on the process
   about to be stepped (or, in frontier expansion, on a throwaway
   replica driver), so prologues of the checked execution still run at
   step time. *)
let pend_exact d p =
  match Driver.pending d p with
  | Some pv -> P_acc (pv.Driver.v_kind, pv.Driver.v_reg_id)
  | None -> P_done

let dependent_fp f pe =
  match (f.f_kind, pe) with
  | None, _ -> false
  | Some _, P_unknown -> true
  | Some _, P_done -> false
  | Some fk, P_acc (pk, preg) ->
      f.f_reg = preg && (fk = Trace.Write || pk = Trace.Write)

let dependent_pp a b =
  match (a, b) with
  | P_unknown, _ | _, P_unknown -> true
  | P_done, _ | _, P_done -> false
  | P_acc (ka, ra), P_acc (kb, rb) ->
      ra = rb && (ka = Trace.Write || kb = Trace.Write)

let popcount m =
  let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
  go m 0

let lowest_bit m =
  let rec go i = if m land (1 lsl i) <> 0 then i else go (i + 1) in
  go 0

(* Per-task result of a (possibly bounded, possibly prefix-rooted)
   DPOR exploration. *)
type task_result = {
  t_explored : int;
  t_pruned : int;
  t_pending : int;
  t_failures : int list list;  (* in discovery order *)
}

(* One DPOR exploration rooted at [prefix] with initial sleep set
   [init_sleep], filtered by [bounds].

   - [prefix] is replayed first (building its happens-before frames);
     backtrack points that race detection would place INSIDE the prefix
     are ignored — sound only because the caller (the frontier
     expansion in [search]) guarantees every enabled, non-slept choice
     at those depths is covered by a sibling task.

   - [bounds] is applied as a branch filter: at each node the set of
     in-bounds continuations is computed from the node state; branches
     outside it are counted in [t_pruned] and NOT added to sibling
     sleep sets (they were cut, not covered).

   A bounded search is therefore sound for bug finding (every visited
   execution is real) but not exhaustive. *)
let dpor_task ~bounds ~max_schedules ~procs ~program ~prefix ~init_sleep =
  let explored = ref 0 in
  let pruned = ref 0 in
  let pending_ctr = ref 0 in
  let failures = ref [] in
  (* backtrack set, entry sleep set and enabled set (bitmasks of pids)
     of the node at each depth of the current DFS path; depths inside
     the frozen prefix have no entry *)
  let bt : (int, int ref * int * int) Hashtbl.t = Hashtbl.create 64 in
  let zero = Array.make procs 0 in
  let clock_of_proc frames_rev p =
    match List.find_opt (fun f -> f.f_pid = p) frames_rev with
    | Some f -> f.f_clock
    | None -> zero
  in
  let count_proc frames_rev p =
    List.fold_left (fun n f -> if f.f_pid = p then n + 1 else n) 0 frames_rev
  in
  let join_into c other =
    for i = 0 to procs - 1 do
      if other.(i) > c.(i) then c.(i) <- other.(i)
    done
  in
  (* vector clock of the access (p, pe) about to execute after frames_rev *)
  let event_clock frames_rev p pe =
    let c = Array.copy (clock_of_proc frames_rev p) in
    (match pe with
    | P_unknown | P_done -> ()
    | P_acc (k, reg) ->
        let rec scan = function
          | [] -> ()
          | f :: rest -> (
              if f.f_reg <> reg then scan rest
              else
                match f.f_kind with
                | Some Trace.Write ->
                    (* dominates every earlier access to this register *)
                    join_into c f.f_clock
                | Some Trace.Read ->
                    if k = Trace.Write then join_into c f.f_clock;
                    scan rest
                | None -> scan rest)
        in
        scan frames_rev);
    c.(p) <- count_proc frames_rev p + 1;
    c
  in
  (* the frame of the access (p, pe) about to execute after frames_rev *)
  let frame_of frames_rev p pe =
    {
      f_pid = p;
      f_kind =
        (match pe with P_acc (k, _) -> Some k | P_unknown | P_done -> None);
      f_reg = (match pe with P_acc (_, r) -> r | P_unknown | P_done -> -1);
      f_clock = event_clock frames_rev p pe;
      f_pidx = count_proc frames_rev p + 1;
    }
  in
  (* Race detection: for each enabled p, the most recent prefix event
     that is dependent with p's next access, by a different process, and
     not ordered before it by happens-before, marks a backtrack point at
     its pre-state.  If p is asleep there, adding p would run nothing
     new, and the races that running p first would expose are never
     seen — so the pre-state backtracks on every enabled process
     instead (a full sleep-set search of that node).  Races whose
     pre-state lies in the frozen prefix (no bt entry) are ignored:
     sibling frontier tasks cover them. *)
  let add_backtracks frames_rev pendings =
    List.iter
      (fun (p, pe) ->
        match pe with
        | P_done -> ()
        | P_unknown | P_acc _ ->
            let cp = clock_of_proc frames_rev p in
            let rec scan i = function
              | [] -> ()
              | f :: rest ->
                  if
                    f.f_pid <> p && dependent_fp f pe
                    && cp.(f.f_pid) < f.f_pidx
                  then (
                    match Hashtbl.find_opt bt i with
                    | Some (r, sleep, enabled) ->
                        r :=
                          !r
                          lor
                          if sleep land (1 lsl p) <> 0 then enabled
                          else 1 lsl p
                    | None -> ())
                  else scan (i - 1) rest
            in
            scan (List.length frames_rev - 1) frames_rev)
      pendings
  in
  (* Bitmask of processes whose step from this node keeps the schedule
     within [bounds].  [last] is the previously stepped pid (-1 at the
     root), [preempts] the pre-emption count so far. *)
  let allowed_mask d ~depth ~last ~preempts runnable =
    let step_allowed p =
      (match bounds.Bounds.bd_length with
      | Some l -> depth < l
      | None -> true)
      &&
      match bounds.Bounds.bd_preempt with
      | Some k ->
          let is_pre = last >= 0 && last <> p && Driver.runnable d last in
          (not is_pre) || preempts < k
      | None -> true
    in
    List.fold_left
      (fun m p -> if step_allowed p then m lor (1 lsl p) else m)
      0 runnable
  in
  (* sleep: assoc list (pid, its sleeping transition); pends of sleeping
     processes cannot change while they sleep (they never step). *)
  let rec explore depth frames_rev (run, d) sleep ~last ~preempts =
    if !explored >= max_schedules then incr pending_ctr
    else
      match Driver.runnable_list d with
      | [] ->
          incr explored;
          let sched = List.rev_map (fun f -> f.f_pid) frames_rev in
          if not (run.check d sched) then failures := sched :: !failures
      | runnable ->
          let pendings =
            List.map
              (fun p ->
                match List.assoc_opt p sleep with
                | Some pe -> (p, pe)
                | None -> (p, lookahead_pend d p))
              runnable
          in
          add_backtracks frames_rev pendings;
          let enabled_mask =
            List.fold_left (fun m p -> m lor (1 lsl p)) 0 runnable
          in
          let sleep_mask =
            List.fold_left (fun m (q, _) -> m lor (1 lsl q)) 0 sleep
          in
          if enabled_mask land lnot sleep_mask = 0 then
            (* sleep-blocked: every continuation reorders independent
               accesses of an execution already explored — prune *)
            incr pruned
          else begin
            (* bound filter, computed once from the node state (before
               the first child consumes [d]) *)
            let am =
              if Bounds.is_none bounds then enabled_mask
              else allowed_mask d ~depth ~last ~preempts runnable
            in
            let my_bt = ref 0 in
            Hashtbl.replace bt depth (my_bt, sleep_mask, enabled_mask);
            let p0 =
              List.find (fun p -> sleep_mask land (1 lsl p) = 0) runnable
            in
            my_bt := 1 lsl p0;
            let slept = ref sleep in
            let slept_mask = ref sleep_mask in
            let consumed = ref false in
            let rec loop () =
              let avail = !my_bt land lnot !slept_mask land enabled_mask in
              if avail <> 0 then
                if !explored >= max_schedules then
                  pending_ctr := !pending_ctr + popcount avail
                else begin
                  let p = lowest_bit avail in
                  if am land (1 lsl p) = 0 then begin
                    (* out of bounds: cut the branch.  Masked out of
                       this node's loop but NOT added to the sleep
                       list — sleeping means "already covered", and a
                       bound-pruned branch was not. *)
                    incr pruned;
                    slept_mask := !slept_mask lor (1 lsl p);
                    loop ()
                  end
                  else begin
                    let ((_, d') as rd) =
                      if not !consumed then begin
                        consumed := true;
                        (run, d)
                      end
                      else begin
                        let ((_, d') as rd) = start ~procs program in
                        List.iter
                          (fun f -> Driver.step d' f.f_pid)
                          (List.rev frames_rev);
                        rd
                      end
                    in
                    (* exact lookahead for the chosen process only: if it
                       was unstarted this runs its prologue, immediately
                       before its first step fires — the same instant the
                       naive explorer would *)
                    let pe = pend_exact d' p in
                    let child_sleep =
                      List.filter
                        (fun (_, pq) -> not (dependent_pp pq pe))
                        !slept
                    in
                    let frame = frame_of frames_rev p pe in
                    let is_pre =
                      last >= 0 && last <> p && Driver.runnable d' last
                    in
                    Driver.step d' p;
                    explore (depth + 1) (frame :: frames_rev) rd child_sleep
                      ~last:p
                      ~preempts:(preempts + if is_pre then 1 else 0);
                    slept := (p, pe) :: !slept;
                    slept_mask := !slept_mask lor (1 lsl p);
                    loop ()
                  end
                end
            in
            loop ();
            Hashtbl.remove bt depth
          end
  in
  (* Replay the frozen prefix, building its frames and bound state.
     A prefix that itself violates the bounds makes the whole task one
     pruned branch. *)
  let ((_, d0) as rd0) = start ~procs program in
  let rec replay_prefix frames_rev last preempts = function
    | [] -> Some (frames_rev, last, preempts)
    | p :: rest ->
        let runnable = Driver.runnable_list d0 in
        let in_bounds =
          Bounds.is_none bounds
          || allowed_mask d0 ~depth:(List.length frames_rev) ~last ~preempts
               runnable
             land (1 lsl p)
             <> 0
        in
        if (not (Driver.runnable d0 p)) || not in_bounds then None
        else begin
          let frame = frame_of frames_rev p (pend_exact d0 p) in
          let is_pre = last >= 0 && last <> p && Driver.runnable d0 last in
          Driver.step d0 p;
          replay_prefix (frame :: frames_rev) p
            (preempts + if is_pre then 1 else 0)
            rest
        end
  in
  (match replay_prefix [] (-1) 0 prefix with
  | None -> incr pruned
  | Some (frames_rev, last, preempts) ->
      explore (List.length prefix) frames_rev rd0 init_sleep ~last ~preempts);
  {
    t_explored = !explored;
    t_pruned = !pruned;
    t_pending = !pending_ctr;
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
   roots: naive full branching (all enabled, non-slept children of each
   node, left to right) down to roughly [frontier_target] nodes.  Each
   child's sleep set inherits the node's sleep plus its already-listed
   left siblings — exactly the sequential sleep-set discipline, so a
   subtree task may prune continuations whose traces a left-sibling
   task covers.  Soundness does not require sibling tasks to run in
   order: it only requires that the covering task exists in the same
   search, which it does by construction (sleep-blocked nodes are the
   only ones dropped, and their traces are covered by the siblings that
   put their entries to sleep).

   The expansion itself is pure partitioning — no checks run here; the
   replica drivers it creates are throwaways (forcing prologues on them
   perturbs nothing observable). *)
let frontier_target = 48
let frontier_depth_cap = 64

let expand_frontier ~procs program =
  let pruned = ref 0 in
  let expand (prefix, sleep) =
    let d = Driver.create ~procs (fun () -> (program ()).body) in
    List.iter (fun p -> Driver.step d p) prefix;
    match Driver.runnable_list d with
    | [] -> `Leaf
    | runnable -> (
        let non_slept =
          List.filter (fun p -> not (List.mem_assoc p sleep)) runnable
        in
        match non_slept with
        | [] ->
            incr pruned;
            `Blocked
        | _ ->
            let rec children acc earlier = function
              | [] -> List.rev acc
              | q :: rest ->
                  let pe = pend_exact d q in
                  let child_sleep =
                    List.filter
                      (fun (_, pq) -> not (dependent_pp pq pe))
                      (sleep @ List.rev earlier)
                  in
                  children
                    ((prefix @ [ q ], child_sleep) :: acc)
                    ((q, pe) :: earlier) rest
            in
            `Children (children [] [] non_slept))
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
  | Way.Naive -> naive ~max_schedules ~max_crashes ~procs program
  | Way.Systematic bounds ->
      if procs >= Sys.int_size - 1 then
        invalid_arg "Explore.search: too many processes for the DPOR bitmask";
      if max_crashes > 0 then
        invalid_arg
          "Explore.search: DPOR does not support crash injection; use \
           Way.Naive or a random way";
      let tasks, expansion_pruned = expand_frontier ~procs program in
      let results =
        run_tasks ~jobs tasks (fun (prefix, sleep) ->
            (* each subtree gets the full budget: a shared countdown
               would make results depend on worker timing *)
            dpor_task ~bounds ~max_schedules ~procs ~program ~prefix
              ~init_sleep:sleep)
      in
      let explored = Array.fold_left (fun a r -> a + r.t_explored) 0 results in
      let pending = Array.fold_left (fun a r -> a + r.t_pending) 0 results in
      let pruned =
        expansion_pruned
        + Array.fold_left (fun a r -> a + r.t_pruned) 0 results
      in
      let failures, failure_tags =
        let pairs =
          Array.to_list results
          |> List.mapi (fun i r ->
                 List.map (fun s -> (s, Printf.sprintf "task=%d" i)) r.t_failures)
          |> List.concat
        in
        (List.map fst pairs, List.map snd pairs)
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
            cov_pruned = pruned;
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
