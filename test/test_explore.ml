(* Exhaustive-exploration tests: bounded model checking of the paper's
   algorithms over EVERY schedule of small configurations.

   These are the strongest correctness statements in the suite: for the
   configurations below there is no interleaving (and, where enabled, no
   single crash point) under which the implementation behaves
   non-linearizably. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ctx ~procs pid = Runtime.Ctx.make ~procs ~pid ()

module Way = Pram.Explore.Way

(* [Pram.Explore.search] with a check that reads only the driver. *)
let search ~way ?max_schedules ?max_crashes ~procs program check =
  Pram.Explore.search ~way ?max_schedules ?max_crashes ~procs
    (Pram.Explore.instance ~check program)

(* [lin_program] whose runs also demand wait-freedom under crashes:
   every process the adversary did not crash (encoded [-1 - p]) runs to
   completion, wherever the crash landed. *)
let with_survivors ~procs lin_program () =
  let run = lin_program () in
  let survivors_finish d sched =
    List.for_all
      (fun p -> List.mem (-1 - p) sched || Pram.Driver.result d p <> None)
      (List.init procs Fun.id)
  in
  let check d sched =
    survivors_finish d sched && run.Pram.Explore.check d sched
  in
  { run with Pram.Explore.check }

(* --- explorer sanity ------------------------------------------------------ *)

let test_count_small () =
  (* two processes, one write each: schedules = interleavings of 1+1
     steps = C(2,1) = 2 *)
  let program () =
    let a = Pram.Memory.Sim.create 0 and b = Pram.Memory.Sim.create 0 in
    fun pid -> if pid = 0 then Pram.Memory.Sim.write a 1 else Pram.Memory.Sim.write b 1
  in
  check_int "2 interleavings" 2
    (search ~way:Way.Naive ~procs:2 program (fun _ _ -> true))
      .Pram.Explore.explored

let test_count_binomial () =
  (* 3 steps each: C(6,3) = 20 *)
  let program () =
    let regs = Array.init 2 (fun _ -> Pram.Memory.Sim.create 0) in
    fun pid ->
      for i = 1 to 3 do
        Pram.Memory.Sim.write regs.(pid) i
      done
  in
  check_int "C(6,3)" 20
    (search ~way:Way.Naive ~procs:2 program (fun _ _ -> true))
      .Pram.Explore.explored

let test_explorer_finds_bugs () =
  (* the lost-update counter: exploration must find schedules where the
     final value is 1 instead of 2 *)
  let program () =
    let r = Pram.Memory.Sim.create 0 in
    fun _pid ->
      let v = Pram.Memory.Sim.read r in
      Pram.Memory.Sim.write r (v + 1);
      Pram.Register.get r
  in
  let outcome =
    search ~way:Way.Naive ~procs:2 program (fun d _sched ->
        match (Pram.Driver.result d 0, Pram.Driver.result d 1) with
        | Some a, Some b -> max a b = 2
        | _ -> true)
  in
  check_bool "some schedule loses an update" true
    (outcome.Pram.Explore.failures <> []);
  check_int "C(4,2) executions" 6 outcome.Pram.Explore.explored

let test_truncation () =
  let program () =
    let regs = Array.init 2 (fun _ -> Pram.Memory.Sim.create 0) in
    fun pid ->
      for i = 1 to 5 do
        Pram.Memory.Sim.write regs.(pid) i
      done
  in
  let outcome =
    search ~way:Way.Naive ~max_schedules:10 ~procs:2 program (fun _ _ -> true)
  in
  check_bool "truncated" true outcome.Pram.Explore.truncated;
  check_bool "pending branches reported" true (outcome.Pram.Explore.pending > 0);
  check_bool "truncated outcome is not ok" false (Pram.Explore.ok outcome)

let test_truncation_exact_count () =
  (* Regression: a state space of exactly [max_schedules] executions is
     fully explored, so the outcome must NOT be flagged truncated (the
     old implementation conflated "hit the count" with "abandoned
     work"). *)
  let program () =
    let regs = Array.init 2 (fun _ -> Pram.Memory.Sim.create 0) in
    fun pid ->
      for i = 1 to 3 do
        Pram.Memory.Sim.write regs.(pid) i
      done
  in
  (* C(6,3) = 20 maximal schedules *)
  let exact =
    search ~way:Way.Naive ~max_schedules:20 ~procs:2 program (fun _ _ -> true)
  in
  check_int "explored all 20" 20 exact.Pram.Explore.explored;
  check_bool "exact count is not truncated" false exact.Pram.Explore.truncated;
  check_int "no pending branches" 0 exact.Pram.Explore.pending;
  check_bool "exact count is ok" true (Pram.Explore.ok exact);
  let short =
    search ~way:Way.Naive ~max_schedules:19 ~procs:2 program (fun _ _ -> true)
  in
  check_int "stopped at 19" 19 short.Pram.Explore.explored;
  check_bool "one short is truncated" true short.Pram.Explore.truncated;
  check_bool "one short reports pending" true (short.Pram.Explore.pending > 0);
  check_bool "one short is not ok" false (Pram.Explore.ok short)

(* --- exhaustive linearizability of the Section 6 scan -------------------- *)

module L = Semilattice.Nat_max
module Scan = Snapshot.Scan.Make (L) (Pram.Memory.Sim_v)
module Scan_spec = Snapshot.Scan_spec.Make (L)
module Scan_check = Lincheck.Make (Scan_spec)

(* p0: write_l 1 then read_max; p1: read_max. *)
let scan_program record =
  let t = Scan.create ~variant:Snapshot.Scan.Optimized ~procs:2 in
  fun pid ->
    let h = Scan.attach t (ctx ~procs:2 pid) in
    if pid = 0 then
      ignore
        (record ~pid (`Write_l 1) (fun () ->
             Scan.write_l h 1;
             `Unit));
    ignore (record ~pid `Read_max (fun () -> `Join (Scan.read_max h)))

(* 18 steps total, C(18,6) = 18564 interleavings — every one must be
   linearizable. *)
let test_scan_exhaustive () =
  let report = Scan_check.search_check ~way:Way.Naive ~procs:2 scan_program in
  check_bool "no interleaving violates linearizability" true
    (Pram.Explore.report_ok report);
  check_bool "meaningful state space" true
    (report.Pram.Explore.r_outcome.Pram.Explore.explored > 5_000)

(* Same workload, plus one crash anywhere: pending operations must still
   linearize (or be droppable). *)
let test_scan_exhaustive_with_crash () =
  let program record =
    let t = Scan.create ~variant:Snapshot.Scan.Optimized ~procs:2 in
    fun pid ->
      let h = Scan.attach t (ctx ~procs:2 pid) in
      ignore
        (record ~pid (`Write_l (pid + 1)) (fun () ->
             Scan.write_l h (pid + 1);
             `Unit))
  in
  let outcome =
    Pram.Explore.search ~way:Way.Naive ~max_crashes:1 ~procs:2
      (with_survivors ~procs:2 (Scan_check.instance program))
  in
  check_bool "no interleaving+crash violates wait-freedom or linearizability"
    true
    (Pram.Explore.ok outcome)

(* --- exhaustive linearizability of the direct counter -------------------- *)

module DC = Universal.Direct.Counter (Pram.Memory.Sim_v)
module Check_counter = Lincheck.Make (Spec.Counter_spec)

(* The last process reads; every other one increments by 1. *)
let counter_program ~procs record =
  let t = DC.create ~procs in
  fun pid ->
    let h = DC.attach t (ctx ~procs pid) in
    if pid < procs - 1 then
      ignore
        (record ~pid (Spec.Counter_spec.Inc 1) (fun () ->
             DC.inc h 1;
             Spec.Counter_spec.Unit))
    else
      ignore
        (record ~pid Spec.Counter_spec.Read (fun () ->
             Spec.Counter_spec.Value (DC.read h)))

let test_direct_counter_exhaustive () =
  let outcome =
    Pram.Explore.search ~way:Way.Naive ~max_crashes:1 ~procs:2
      (with_survivors ~procs:2
         (Check_counter.instance (counter_program ~procs:2)))
  in
  check_bool "direct counter exhaustively wait-free and linearizable" true
    (Pram.Explore.ok outcome)

(* --- the naive collect's violations, counted exhaustively ----------------- *)

module V = Snapshot.Slot_value.Int
module Naive = Snapshot.Collect.Make (V) (Pram.Memory.Sim)
module Arr_spec =
  Snapshot.Array_spec.Make
    (V)
    (struct
      let procs = 3
    end)

module Arr_check = Lincheck.Make (Arr_spec)

let test_naive_collect_violations_counted () =
  (* p0 and p1 write (1 step each); p2 collects (3 reads); 10 steps total.
     Exhaustive search must find a nonzero number of violating
     interleavings — the checker and the explorer agree on exactly which
     interleavings are broken, deterministically. *)
  let program record =
    let t = Naive.create ~procs:3 in
    fun pid ->
      let h = Naive.attach t (ctx ~procs:3 pid) in
      if pid < 2 then
        ignore
          (record ~pid (`Update (pid, pid + 10)) (fun () ->
               Naive.update h (pid + 10);
               `Unit))
      else ignore (record ~pid `Snapshot (fun () -> `View (Naive.snapshot h)))
  in
  let outcome =
    Pram.Explore.search ~way:Way.Naive ~procs:3 (Arr_check.instance program)
  in
  check_bool "naive collect has violating schedules" true
    (outcome.Pram.Explore.failures <> []);
  (* determinism: the same count every run *)
  let outcome2 =
    Pram.Explore.search ~way:Way.Naive ~procs:3 (Arr_check.instance program)
  in
  check_int "violation count deterministic"
    (List.length outcome.Pram.Explore.failures)
    (List.length outcome2.Pram.Explore.failures)

(* ...while the atomic snapshot on an update-vs-snapshot workload has
   zero violating schedules (2 processes: C(12,6) = 924 interleavings). *)
module Arr = Snapshot.Snapshot_array.Make (V) (Pram.Memory.Sim_v)
module Arr_spec2 =
  Snapshot.Array_spec.Make
    (V)
    (struct
      let procs = 2
    end)

module Arr_check2 = Lincheck.Make (Arr_spec2)

let test_atomic_snapshot_no_violations () =
  let program record =
    let t = Arr.create ~variant:Snapshot.Scan.Optimized ~procs:2 in
    fun pid ->
      let h = Arr.attach t (ctx ~procs:2 pid) in
      if pid = 0 then
        ignore
          (record ~pid (`Update (0, 10)) (fun () ->
               Arr.update h 10;
               `Unit))
      else ignore (record ~pid `Snapshot (fun () -> `View (Arr.snapshot h)))
  in
  let report = Arr_check2.search_check ~way:Way.Naive ~procs:2 program in
  check_bool "atomic snapshot: zero violating schedules" true
    (Pram.Explore.report_ok report);
  check_int "C(12,6) executions" 924
    report.Pram.Explore.r_outcome.Pram.Explore.explored

(* --- exhaustive linearizability of the BOUNDED Afek et al. snapshot ------- *)

module AB = Snapshot.Afek_bounded.Make (V) (Pram.Memory.Sim)

let test_afek_bounded_exhaustive () =
  (* p0 updates, p1 snapshots: every interleaving must linearize.  The
     handshake-bit protocol is the subtlest code in the repository, so
     this exhaustive check matters more than random sampling. *)
  let program record =
    let t = AB.create ~procs:2 in
    fun pid ->
      let h = AB.attach t (ctx ~procs:2 pid) in
      if pid = 0 then
        ignore
          (record ~pid (`Update (0, 10)) (fun () ->
               AB.update h 10;
               `Unit))
      else ignore (record ~pid `Snapshot (fun () -> `View (AB.snapshot h)))
  in
  let outcome =
    Pram.Explore.search ~way:Way.Naive ~max_schedules:2_000_000 ~procs:2
      (Arr_check2.instance program)
  in
  check_bool "bounded afek: zero violating schedules" true
    (Pram.Explore.ok outcome)

let qcheck_afek_bounded_contended =
  (* two writers doing several updates each against one scanner: the
     moved-twice / borrow path triggers on many of these seeds (the full
     double-update state space exceeds 3M interleavings, so this is
     randomized rather than exhaustive) *)
  QCheck.Test.make ~name:"bounded afek contended linearizable" ~count:200
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let module Arr_spec3 =
        Snapshot.Array_spec.Make
          (V)
          (struct
            let procs = 3
          end)
      in
      let module Check3 = Lincheck.Make (Arr_spec3) in
      let recorder = Spec.History.Recorder.create () in
      let program () =
        let t = AB.create ~procs:3 in
        fun pid ->
          let h = AB.attach t (ctx ~procs:3 pid) in
          if pid = 0 then
            ignore
              (Spec.History.Recorder.record recorder ~pid `Snapshot (fun () ->
                   `View (AB.snapshot h)))
          else
            for i = 1 to 3 do
              ignore
                (Spec.History.Recorder.record recorder ~pid
                   (`Update (pid, (10 * pid) + i)) (fun () ->
                     AB.update h ((10 * pid) + i);
                     `Unit))
            done
      in
      let d = Pram.Driver.create ~procs:3 program in
      Pram.Scheduler.run ~max_steps:5_000_000 (Pram.Scheduler.random ~seed ()) d;
      Check3.is_linearizable (Spec.History.Recorder.events recorder))

(* --- exhaustive approximate agreement (tiny configuration) ---------------- *)

module AA = Agreement.Approx_agreement.Make (Pram.Memory.Sim)

let test_agreement_exhaustive () =
  (* Two processes with inputs within 2*eps: few rounds, small tree.
     Check validity and epsilon-agreement on every interleaving. *)
  let epsilon = 1.0 in
  let program () =
    let t = AA.create ~procs:2 ~epsilon in
    fun pid ->
      let h = AA.attach t (ctx ~procs:2 pid) in
      let x = if pid = 0 then 0.0 else 0.9 in
      AA.input h x;
      AA.output h
  in
  let outcome =
    search ~way:Way.Naive ~max_schedules:500_000 ~procs:2 program
      (fun d _sched ->
        match (Pram.Driver.result d 0, Pram.Driver.result d 1) with
        | Some a, Some b ->
            Float.abs (a -. b) < epsilon
            && a >= 0.0 && a <= 0.9 && b >= 0.0 && b <= 0.9
        | _ -> false)
  in
  check_bool "agreement holds on every interleaving" true
    (Pram.Explore.ok outcome);
  check_bool "meaningful state space" true
    (outcome.Pram.Explore.explored > 10_000)

(* --- DPOR vs naive: same verdicts, strictly fewer schedules --------------- *)

(* The tentpole property of the DPOR explorer: on each seed program it
   reaches the same verdict as the naive enumeration while exploring
   strictly fewer schedules (one representative per Mazurkiewicz
   trace). *)

let test_dpor_vs_naive_lost_update () =
  (* a program WITH a bug: both ways must report the violation *)
  let program () =
    let r = Pram.Memory.Sim.create 0 in
    fun _pid ->
      let v = Pram.Memory.Sim.read r in
      Pram.Memory.Sim.write r (v + 1);
      Pram.Register.get r
  in
  let check d _sched =
    match (Pram.Driver.result d 0, Pram.Driver.result d 1) with
    | Some a, Some b -> max a b = 2
    | _ -> true
  in
  let naive = search ~way:Way.Naive ~procs:2 program check in
  let dpor = search ~way:Way.systematic ~procs:2 program check in
  check_bool "naive finds the violation" true (naive.Pram.Explore.failures <> []);
  check_bool "dpor finds the violation" true (dpor.Pram.Explore.failures <> []);
  check_int "naive explores C(4,2)" 6 naive.Pram.Explore.explored;
  check_bool "dpor explores strictly fewer" true
    (dpor.Pram.Explore.explored < naive.Pram.Explore.explored)

let test_dpor_vs_naive_scan () =
  let program = Scan_check.instance scan_program in
  let naive = Pram.Explore.search ~way:Way.Naive ~procs:2 program in
  let dpor = Pram.Explore.search ~way:Way.systematic ~procs:2 program in
  check_bool "naive verdict ok" true (Pram.Explore.ok naive);
  check_bool "dpor verdict ok" true (Pram.Explore.ok dpor);
  check_int "naive explores C(18,6)" 18564 naive.Pram.Explore.explored;
  check_bool "dpor explores strictly fewer" true
    (dpor.Pram.Explore.explored < naive.Pram.Explore.explored);
  check_bool "dpor reduction is substantial (>10x)" true
    (dpor.Pram.Explore.explored * 10 < naive.Pram.Explore.explored)

let test_dpor_vs_naive_counter () =
  let program = Check_counter.instance (counter_program ~procs:2) in
  let naive = Pram.Explore.search ~way:Way.Naive ~procs:2 program in
  let dpor = Pram.Explore.search ~way:Way.systematic ~procs:2 program in
  check_bool "naive verdict ok" true (Pram.Explore.ok naive);
  check_bool "dpor verdict ok" true (Pram.Explore.ok dpor);
  check_int "naive explores C(12,6)" 924 naive.Pram.Explore.explored;
  check_bool "dpor explores strictly fewer" true
    (dpor.Pram.Explore.explored < naive.Pram.Explore.explored)

let test_dpor_vs_naive_agreement_3procs () =
  (* At 3 processes the approximate-agreement state space exceeds 10^9
     maximal schedules, so the naive search can only be run truncated;
     DPOR completes it outright.  Both agree that no explored schedule
     violates validity or epsilon-agreement, and DPOR's complete search
     visits strictly fewer schedules than the naive search's truncated
     prefix — the reduction is what makes 3-process configurations
     checkable at all. *)
  let epsilon = 8.0 in
  let inputs = [| 0.0; 1.0; 2.0 |] in
  let program () =
    let t = AA.create ~procs:3 ~epsilon in
    fun pid ->
      let h = AA.attach t (ctx ~procs:3 pid) in
      AA.input h inputs.(pid);
      AA.output h
  in
  let check d _sched =
    let results = List.init 3 (fun p -> Pram.Driver.result d p) in
    List.for_all
      (function
        | None -> false
        | Some v -> v >= 0.0 && v <= 2.0)
      results
    &&
    match List.filter_map Fun.id results with
    | [] -> false
    | x :: rest ->
        List.for_all (fun y -> Float.abs (x -. y) < epsilon) rest
  in
  let naive =
    search ~way:Way.Naive ~max_schedules:20_000
      ~procs:3 program check
  in
  let dpor = search ~way:Way.systematic ~procs:3 program check in
  check_bool "naive cannot finish (truncated)" true naive.Pram.Explore.truncated;
  check_bool "naive finds no violation in its prefix" true
    (naive.Pram.Explore.failures = []);
  check_bool "dpor completes the search" true (Pram.Explore.ok dpor);
  check_bool "dpor explores strictly fewer schedules" true
    (dpor.Pram.Explore.explored < naive.Pram.Explore.explored)

(* --- growing to 3 processes under DPOR ------------------------------------ *)

let test_scan_3procs_dpor () =
  (* two writers and a reader: far beyond naive reach (~10^12 maximal
     schedules), ~10^5 DPOR representatives *)
  let program record =
    let t = Scan.create ~variant:Snapshot.Scan.Optimized ~procs:3 in
    fun pid ->
      let h = Scan.attach t (ctx ~procs:3 pid) in
      if pid < 2 then
        ignore
          (record ~pid (`Write_l (pid + 1)) (fun () ->
               Scan.write_l h (pid + 1);
               `Unit))
      else ignore (record ~pid `Read_max (fun () -> `Join (Scan.read_max h)))
  in
  let outcome =
    Pram.Explore.search ~way:Way.systematic ~max_schedules:2_000_000 ~procs:3
      (Scan_check.instance program)
  in
  check_bool "3-process scan linearizable on all representatives" true
    (Pram.Explore.ok outcome);
  check_bool "meaningful state space" true
    (outcome.Pram.Explore.explored > 50_000)

let test_counter_3procs_dpor () =
  let outcome =
    Pram.Explore.search ~way:Way.systematic ~max_schedules:2_000_000 ~procs:3
      (Check_counter.instance (counter_program ~procs:3))
  in
  check_bool "3-process counter linearizable on all representatives" true
    (Pram.Explore.ok outcome);
  check_bool "meaningful state space" true
    (outcome.Pram.Explore.explored > 50_000)

let test_agreement_3procs_dpor () =
  let epsilon = 8.0 in
  let inputs = [| 0.0; 1.0; 2.0 |] in
  let program () =
    let t = AA.create ~procs:3 ~epsilon in
    fun pid ->
      let h = AA.attach t (ctx ~procs:3 pid) in
      AA.input h inputs.(pid);
      AA.output h
  in
  let outcome =
    search ~way:Way.systematic ~procs:3 program
      (fun d _sched ->
        match List.init 3 (fun p -> Pram.Driver.result d p) with
        | [ Some a; Some b; Some c ] ->
            let lo = Float.min a (Float.min b c)
            and hi = Float.max a (Float.max b c) in
            hi -. lo < epsilon && lo >= 0.0 && hi <= 2.0
        | _ -> false)
  in
  check_bool "3-process agreement holds on all representatives" true
    (Pram.Explore.ok outcome)

(* --- counterexample shrinking on an injected bug -------------------------- *)

(* The Section 6 scan with one collect removed: each pass reads its peers'
   columns EXCEPT the last process's, so the last writer's values never
   propagate to other processes.  A reader can then miss a write that
   completed strictly before its scan began — a real-time linearizability
   violation the explorer must find, and the shrinker must minimize.

   The naive way is required here, and deliberately so: the bug removes the
   very accesses that made reader and writer dependent, so entire
   interleavings of the two operations collapse into one Mazurkiewicz
   trace whose representative happens to linearize.  This is the
   documented POR caveat (violations living purely in the real-time order
   of independent accesses); the fixture doubles as a regression test for
   that documentation. *)
module Buggy_scan = struct
  module M = Pram.Memory.Sim

  type t = {
    procs : int;
    grid : L.t M.reg array array;
    mirror : L.t array array;
  }

  let create ~procs =
    {
      procs;
      grid =
        Array.init procs (fun p ->
            Array.init (procs + 2) (fun i ->
                M.create ~name:(Printf.sprintf "scan[%d][%d]" p i) L.bottom));
      mirror = Array.init procs (fun _ -> Array.make (procs + 2) L.bottom);
    }

  let scan t ~pid v =
    let n = t.procs in
    let row = t.grid.(pid) in
    let mir = t.mirror.(pid) in
    let v0 = L.join v (M.read row.(0)) in
    M.write row.(0) v0;
    mir.(0) <- v0;
    for i = 1 to n + 1 do
      let acc = ref mir.(i) in
      (* BUG: [to n - 2] drops the collect of the last process's column *)
      for q = 0 to n - 2 do
        acc := L.join !acc (M.read t.grid.(q).(i - 1))
      done;
      M.write row.(i) !acc;
      mir.(i) <- !acc
    done;
    mir.(n + 1)

  let write_l t ~pid v = ignore (scan t ~pid v)
  let read_max t ~pid = scan t ~pid L.bottom
end

let buggy_scan_program record =
  let t = Buggy_scan.create ~procs:2 in
  fun pid ->
    if pid = 0 then
      ignore
        (record ~pid `Read_max (fun () -> `Join (Buggy_scan.read_max t ~pid)))
    else
      ignore
        (record ~pid (`Write_l 2) (fun () ->
             Buggy_scan.write_l t ~pid 2;
             `Unit))

let test_injected_bug_shrinks () =
  let report =
    Pram.Explore.search_check ~way:Way.Naive ~procs:2
      (Scan_check.instance buggy_scan_program)
  in
  check_bool "violation found" false (Pram.Explore.report_ok report);
  match report.Pram.Explore.r_counterexample with
  | None -> Alcotest.fail "expected a counterexample"
  | Some cex ->
      let orig = cex.Pram.Explore.cex_schedule in
      let shrunk = cex.Pram.Explore.cex_shrunk in
      check_bool "shrunk is no longer than the original" true
        (List.length shrunk <= List.length orig);
      check_bool "shrunk has no more context switches" true
        (Pram.Explore.context_switches shrunk
        <= Pram.Explore.context_switches orig);
      (* the shrunk schedule must still fail when replayed from scratch *)
      let recorder = Spec.History.Recorder.create () in
      let record = Spec.History.Recorder.record recorder in
      ignore
        (Pram.Explore.replay_encoded ~procs:2
           (fun () -> buggy_scan_program record)
           shrunk);
      check_bool "shrunk schedule still fails on replay" false
        (Scan_check.is_linearizable (Spec.History.Recorder.events recorder));
      check_bool "message renders the schedule" true
        (String.length cex.Pram.Explore.cex_message > 0);
      let contains_substring hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i =
          if i + nn > nh then false
          else String.sub hay i nn = needle || go (i + 1)
        in
        go 0
      in
      check_bool "counterexample is stable" false
        (contains_substring cex.Pram.Explore.cex_message "UNSTABLE")

let test_explore_check_wrapper () =
  (* the Lincheck-side wrapper ([search_check]): failing fixture yields a
     counterexample with a rendered history; correct object passes *)
  let report =
    Scan_check.search_check ~way:Way.Naive ~procs:2 buggy_scan_program
  in
  check_bool "wrapper finds the violation" false (Pram.Explore.report_ok report);
  (match report.Pram.Explore.r_counterexample with
  | None -> Alcotest.fail "expected a counterexample"
  | Some cex ->
      check_bool "message includes the failing history" true
        (String.length cex.Pram.Explore.cex_message > 40));
  (* and the real scan on the same workload is clean under the wrapper *)
  let good_program record =
    let t = Scan.create ~variant:Snapshot.Scan.Optimized ~procs:2 in
    fun pid ->
      let h = Scan.attach t (ctx ~procs:2 pid) in
      if pid = 0 then
        ignore (record ~pid `Read_max (fun () -> `Join (Scan.read_max h)))
      else
        ignore
          (record ~pid (`Write_l 2) (fun () ->
               Scan.write_l h 2;
               `Unit))
  in
  let report2 = Scan_check.search_check ~way:Way.Naive ~procs:2 good_program in
  check_bool "correct scan passes under the wrapper" true
    (Pram.Explore.report_ok report2)

let () =
  Alcotest.run "explore"
    [
      ( "explorer",
        [
          Alcotest.test_case "count small" `Quick test_count_small;
          Alcotest.test_case "count binomial" `Quick test_count_binomial;
          Alcotest.test_case "finds lost updates" `Quick test_explorer_finds_bugs;
          Alcotest.test_case "truncation" `Quick test_truncation;
          Alcotest.test_case "truncation at exact count" `Quick
            test_truncation_exact_count;
        ] );
      ( "dpor vs naive",
        [
          Alcotest.test_case "lost update: same verdict, fewer schedules"
            `Quick test_dpor_vs_naive_lost_update;
          Alcotest.test_case "scan: same verdict, fewer schedules" `Slow
            test_dpor_vs_naive_scan;
          Alcotest.test_case "counter: same verdict, fewer schedules" `Quick
            test_dpor_vs_naive_counter;
          Alcotest.test_case "3-proc agreement: dpor completes, naive cannot"
            `Slow test_dpor_vs_naive_agreement_3procs;
        ] );
      ( "3 processes under dpor",
        [
          Alcotest.test_case "scan at 3 procs" `Slow test_scan_3procs_dpor;
          Alcotest.test_case "counter at 3 procs" `Slow
            test_counter_3procs_dpor;
          Alcotest.test_case "agreement at 3 procs" `Quick
            test_agreement_3procs_dpor;
        ] );
      ( "counterexample shrinking",
        [
          Alcotest.test_case "injected bug shrinks and replays" `Quick
            test_injected_bug_shrinks;
          Alcotest.test_case "explore_check wrapper" `Quick
            test_explore_check_wrapper;
        ] );
      ( "exhaustive verification",
        [
          Alcotest.test_case "scan linearizable on all schedules" `Slow
            test_scan_exhaustive;
          Alcotest.test_case "scan linearizable with crashes" `Slow
            test_scan_exhaustive_with_crash;
          Alcotest.test_case "direct counter on all schedules" `Slow
            test_direct_counter_exhaustive;
          Alcotest.test_case "naive collect violations counted" `Quick
            test_naive_collect_violations_counted;
          Alcotest.test_case "atomic snapshot zero violations" `Slow
            test_atomic_snapshot_no_violations;
          Alcotest.test_case "agreement on all schedules" `Slow
            test_agreement_exhaustive;
          Alcotest.test_case "bounded afek on all schedules" `Slow
            test_afek_bounded_exhaustive;
          QCheck_alcotest.to_alcotest qcheck_afek_bounded_contended;
        ] );
    ]
