(* Differential tests for the incremental universal construction (PR 5).

   The memoized [Incremental] mode of [Universal.Construction] must be
   observationally indistinguishable from the from-scratch [Reference]
   mode:

   - byte-identical responses on EVERY schedule — checked exhaustively
     (DPOR) for procs <= 3, including crash branches, and on random
     commute/overwrite scripts for procs 1..4;
   - an unchanged synchronization layer — the per-process simulator step
     counts (every atomic register access) must match exactly, since the
     memo only replaces local linearization work;
   - O(delta) local work — a sequential run of m operations must replay
     history entries O(m) times in total where the reference replays
     Theta(m^2), counted both through [stats] and through the
     ["replay %d entries"] annotations in the observer sink.

   See DESIGN.md section 10 for why the merge rules make this sound. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ctx ~procs pid = Runtime.Ctx.make ~procs ~pid ()

(* --- generic differential machinery --------------------------------------- *)

module Diff (O : Spec.Object_spec.S) = struct
  module U = Universal.Construction.Make (O) (Pram.Memory.Sim_v)

  (* A program running [script] with [mode] handles, appending each
     response (with its pid) to [out] as it is produced, so crashed
     processes still contribute their completed prefix. *)
  let program ~mode ~procs ~script out () =
    let t = U.create ~procs () in
    fun pid ->
      let h = U.attach ~mode t (ctx ~procs pid) in
      List.iter
        (fun op ->
          let r = U.execute h op in
          out := (pid, r) :: !out)
        (script pid)

  (* Both runs execute the same script under the same schedule, so the
     k-th completed operation is the same (pid, op) in both — comparing
     (pid, response) sequences compares responses pointwise. *)
  let same_responses a b =
    List.length a = List.length b
    && List.for_all2
         (fun (p1, r1) (p2, r2) -> p1 = p2 && O.equal_response r1 r2)
         a b

  (* Exhaustively explore the Incremental program; for every enumerated
     schedule, replay the SAME encoded schedule against the Reference
     program and demand identical responses and identical per-pid step
     counts.  Returns the explore outcome for the caller to gate on. *)
  let explore_diff ~way ?max_schedules ?max_crashes ~procs ~script () =
    Pram.Explore.search ~way ?max_schedules ?max_crashes ~procs (fun () ->
        let out_inc = ref [] in
        {
          Pram.Explore.body =
            program ~mode:U.Incremental ~procs ~script out_inc ();
          check =
            (fun d sched ->
              let out_ref = ref [] in
              let d_ref, _ =
                Pram.Explore.replay_encoded ~procs
                  (program ~mode:U.Reference ~procs ~script out_ref)
                  sched
              in
              same_responses (List.rev !out_inc) (List.rev !out_ref)
              && List.for_all
                   (fun p -> Pram.Driver.steps d p = Pram.Driver.steps d_ref p)
                   (List.init procs Fun.id));
          pp_history = None;
        })

  (* One random schedule (seeded), both modes: identical responses and
     per-pid steps.  Completion after the scheduler gives up is part of
     the recorded schedule, so the replay is exact. *)
  let random_diff ~procs ~seed ~script =
    let out_inc = ref [] and out_ref = ref [] in
    let inc_program = program ~mode:U.Incremental ~procs ~script out_inc in
    let ref_program = program ~mode:U.Reference ~procs ~script out_ref in
    let d = Pram.Driver.create ~procs inc_program in
    Pram.Scheduler.run ~max_steps:5_000_000
      (Pram.Scheduler.random ~seed ())
      d;
    for p = 0 to procs - 1 do
      if Pram.Driver.runnable d p then ignore (Pram.Driver.run_solo d p)
    done;
    let d_ref =
      Pram.Driver.replay ~procs ref_program (Pram.Driver.schedule d)
    in
    same_responses (List.rev !out_inc) (List.rev !out_ref)
    && List.for_all
         (fun p -> Pram.Driver.steps d p = Pram.Driver.steps d_ref p)
         (List.init procs Fun.id)
end

module Diff_counter = Diff (Spec.Counter_spec)
module Diff_gset = Diff (Spec.Gset_spec)
module Diff_sticky = Diff (Spec.Sticky_spec)

(* --- exhaustive differential (procs <= 3, DPOR) --------------------------- *)

let test_explore_diff_counter_p2 () =
  (* Inc/Read commute with reads; Reset overwrites: both the merge path
     and the rebuild/non-canonical path are hit across the schedules. *)
  let script = function
    | 0 -> Spec.Counter_spec.[ Inc 1; Read ]
    | _ -> Spec.Counter_spec.[ Reset 5 ]
  in
  let outcome =
    Diff_counter.explore_diff ~way:Pram.Explore.Way.systematic ~procs:2
      ~script ()
  in
  check_bool "all DPOR schedules agree (counter, procs 2)" true
    (Pram.Explore.ok outcome);
  check_bool "non-trivial schedule count" true
    (outcome.Pram.Explore.explored > 10)

let test_explore_diff_gset_p3 () =
  (* Complete DPOR closure at procs 3: two two-op processes (the third
     stays idle but contributes its anchor slot to every scan), with
     [Members] making the schedule-dependent state visible in the
     responses.  Two ops per process matter here: the construction runs
     the Adaptive scan, whose uncontended fast path touches so few
     conflicting registers that single-op closures collapse to a
     handful of classes — the second round makes the fast/full
     interleavings reachable.  (Bounded retry — PR 10 — absorbs single
     invalidations that used to escalate, so the closure is ~90 classes
     where it was ~2k; scan-level escalation coverage lives in
     test_snapshot's retries:1 differential and test_metrics' forced
     escalation.) *)
  let script = function
    | 0 -> Spec.Gset_spec.[ Add 1; Members ]
    | 1 -> Spec.Gset_spec.[ Add 2; Members ]
    | _ -> []
  in
  let outcome =
    Diff_gset.explore_diff ~way:Pram.Explore.Way.systematic ~procs:3
      ~script ()
  in
  check_bool "all DPOR schedules agree (gset, procs 3)" true
    (Pram.Explore.ok outcome);
  check_bool "non-trivial schedule count" true
    (outcome.Pram.Explore.explored > 50)

let test_explore_diff_gset_p3_sampled () =
  (* Three active processes including the overwriting [Clear].  Under
     the double-collect scan this closure exceeded 10^6 classes and had
     to be sampled; the Adaptive fast path shrinks it to a few hundred
     (a few dozen with bounded retry), so the complete closure is now
     explored (the budget is kept as a safety net only). *)
  let script = function
    | 0 -> Spec.Gset_spec.[ Add 1 ]
    | 1 -> Spec.Gset_spec.[ Clear ]
    | _ -> Spec.Gset_spec.[ Members ]
  in
  let outcome =
    Diff_gset.explore_diff ~way:Pram.Explore.Way.systematic
      ~max_schedules:60_000 ~procs:3 ~script ()
  in
  check_bool "all DPOR schedules agree (gset, all active)" true
    (Pram.Explore.ok outcome);
  check_bool "non-trivial schedule count" true
    (outcome.Pram.Explore.explored > 10)

let test_explore_diff_counter_crashes () =
  (* Naive exploration with crash branching: a crashed process's
     published-but-unlinearized entry must be merged identically by both
     modes.  The naive space at this size is too big to finish, so gate
     on "no failures among the first N schedules" instead of [ok]. *)
  let script = function
    | 0 -> Spec.Counter_spec.[ Inc 1 ]
    | _ -> Spec.Counter_spec.[ Reset 5 ]
  in
  let outcome =
    Diff_counter.explore_diff ~way:Pram.Explore.Way.Naive ~max_crashes:1
      ~max_schedules:4_000 ~procs:2 ~script ()
  in
  check_bool "no disagreement under crashes" true
    (outcome.Pram.Explore.failures = []);
  (* with the adaptive scan the naive crash-branching space at this
     size finishes inside the budget (~1.4k schedules) *)
  check_bool "explored a real sample" true
    (outcome.Pram.Explore.explored >= 1_000)

(* --- random-script differential (procs 1..4) ------------------------------ *)

let qcheck_diff_random ~name ~count ~procs:(procs_lo, procs_hi)
    ~ops:(ops_lo, ops_hi) ~random_diff ~gen_op =
  QCheck.Test.make ~name ~count
    QCheck.(pair (int_bound 1_000_000) (int_range procs_lo procs_hi))
    (fun (seed, procs) ->
      let rng = Random.State.make [| seed; procs; 0x1ac |] in
      let script =
        Array.init procs (fun _ ->
            List.init
              (ops_lo + Random.State.int rng (ops_hi - ops_lo + 1))
              (fun _ -> gen_op rng))
      in
      random_diff ~procs ~seed ~script:(fun pid -> script.(pid)))

let counter_op rng =
  match Random.State.int rng 8 with
  | 0 | 1 | 2 -> Spec.Counter_spec.Inc (1 + Random.State.int rng 5)
  | 3 | 4 -> Spec.Counter_spec.Dec (1 + Random.State.int rng 5)
  | 5 -> Spec.Counter_spec.Reset (Random.State.int rng 10)
  | _ -> Spec.Counter_spec.Read

let gset_op rng =
  match Random.State.int rng 6 with
  | 0 | 1 | 2 -> Spec.Gset_spec.Add (Random.State.int rng 8)
  | 3 -> Spec.Gset_spec.Clear
  | _ -> Spec.Gset_spec.Members

(* Sticky writes neither commute nor overwrite (Property 1 rejects the
   spec), which drives the memo permanently non-canonical: the
   differential identity must survive the fallback-forever path too. *)
let sticky_op rng =
  if Random.State.int rng 3 = 0 then Spec.Sticky_spec.Read_sticky
  else Spec.Sticky_spec.Stick (Random.State.int rng 5)

let qcheck_diff_counter =
  qcheck_diff_random ~name:"incremental = reference: counter, random"
    ~count:60 ~procs:(1, 4) ~ops:(1, 4) ~random_diff:Diff_counter.random_diff
    ~gen_op:counter_op

let qcheck_diff_gset =
  qcheck_diff_random ~name:"incremental = reference: gset, random" ~count:60
    ~procs:(1, 4) ~ops:(1, 4) ~random_diff:Diff_gset.random_diff
    ~gen_op:gset_op

let qcheck_diff_sticky =
  qcheck_diff_random ~name:"incremental = reference: sticky, random"
    ~count:60 ~procs:(1, 4) ~ops:(1, 4) ~random_diff:Diff_sticky.random_diff
    ~gen_op:sticky_op

(* Long scripts: with 1-4 ops per process the summary's frontier rarely
   moves, so these are the cases that drive a pruned summary through
   merges, Reset/Clear rebuilds and the non-canonical path. *)

let qcheck_diff_counter_long =
  qcheck_diff_random ~name:"incremental = reference: counter, long scripts"
    ~count:50 ~procs:(2, 4) ~ops:(10, 40)
    ~random_diff:Diff_counter.random_diff ~gen_op:counter_op

let qcheck_diff_gset_long =
  qcheck_diff_random ~name:"incremental = reference: gset, long scripts"
    ~count:50 ~procs:(2, 4) ~ops:(10, 40) ~random_diff:Diff_gset.random_diff
    ~gen_op:gset_op

let qcheck_diff_sticky_long =
  qcheck_diff_random ~name:"incremental = reference: sticky, long scripts"
    ~count:50 ~procs:(2, 4) ~ops:(10, 40)
    ~random_diff:Diff_sticky.random_diff ~gen_op:sticky_op

(* --- O(delta) regression --------------------------------------------------- *)

module UC_direct = Universal.Construction.Make (Spec.Counter_spec) (Pram.Memory.Direct_v)

(* Count the history entries a handle replayed, from the journal's
   ["replay %d entries"] annotations — the observer-sink view of the
   same quantity [stats] reports as [spec_replays]. *)
let replays_in_journal journal =
  List.fold_left
    (fun acc (e : Tracing.event) ->
      match e.Tracing.ev with
      | Tracing.Annotate s -> (
          try Scanf.sscanf s "replay %d entries" (fun n -> acc + n)
          with Scanf.Scan_failure _ | Failure _ | End_of_file -> acc)
      | _ -> acc)
    0 (Tracing.Journal.events journal)

let run_sequential ~mode ~procs ~per_proc =
  (* Round-robin at operation granularity: p0 op, p1 op, ... — every
     operation sees all previous ones, so the reference replays the whole
     history each time while the memo only absorbs the new entries. *)
  let journal = Tracing.Journal.create ~procs () in
  let sink = Runtime.Sink.make ~journal () in
  let t = UC_direct.create ~procs () in
  let handles =
    Array.init procs (fun pid ->
        UC_direct.attach ~mode t (Runtime.Ctx.make ~sink ~procs ~pid ()))
  in
  for _round = 1 to per_proc do
    Array.iteri
      (fun pid h ->
        ignore (UC_direct.execute h (Spec.Counter_spec.Inc (pid + 1))))
      handles
  done;
  let stats_total =
    Array.fold_left
      (fun acc h -> acc + (UC_direct.stats h).spec_replays)
      0 handles
  in
  (stats_total, replays_in_journal journal)

let test_odelta_regression () =
  let procs = 3 and per_proc = 12 in
  let m = procs * per_proc in
  let inc_stats, inc_journal =
    run_sequential ~mode:UC_direct.Incremental ~procs ~per_proc
  in
  let ref_stats, ref_journal =
    run_sequential ~mode:UC_direct.Reference ~procs ~per_proc
  in
  (* the two accounting channels must agree with each other *)
  check_int "incremental: stats = journal" inc_stats inc_journal;
  check_int "reference: stats = journal" ref_stats ref_journal;
  (* each entry is merged at most once by each OTHER process's memo:
     total incremental replays <= procs * m, i.e. c*m with c = procs *)
  check_bool "incremental replays are O(m)" true (inc_stats <= procs * m);
  (* the reference replays the full i-entry history before op i+1:
     sum_{i<m} i = m(m-1)/2 *)
  check_int "reference replays are m(m-1)/2" (m * (m - 1) / 2) ref_stats;
  check_bool "memoization actually wins" true (inc_stats * 4 < ref_stats)

let test_odelta_single_process () =
  (* A solo process never replays at all: its own entries are committed
     with their stored responses, no [O.apply] needed. *)
  let inc_stats, inc_journal =
    run_sequential ~mode:UC_direct.Incremental ~procs:1 ~per_proc:20
  in
  check_int "solo incremental replays" 0 inc_stats;
  check_int "solo incremental journal agrees" 0 inc_journal

let test_stats_shape () =
  (* White-box: a commuting two-process run merges without rebuilding and
     stays canonical; injecting Reset from a peer forces a rebuild. *)
  let t = UC_direct.create ~procs:2 () in
  let h0 = UC_direct.attach t (ctx ~procs:2 0) in
  let h1 = UC_direct.attach t (ctx ~procs:2 1) in
  let open Spec.Counter_spec in
  ignore (UC_direct.execute h0 (Inc 1));
  ignore (UC_direct.execute h1 (Inc 2));
  ignore (UC_direct.execute h0 Read);
  let s0 = UC_direct.stats h0 in
  check_bool "commuting run stays canonical" true s0.canonical;
  check_int "no rebuilds on commuting run" 0 s0.rebuilds;
  check_bool "merged the peer's entries" true (s0.merges >= 1);
  check_int "h0 committed everything it saw" 3 s0.committed;
  (* Reference handles report their replay count but never merge *)
  let href = UC_direct.attach ~mode:UC_direct.Reference t (ctx ~procs:2 1) in
  ignore (UC_direct.execute href Read);
  let sref = UC_direct.stats href in
  check_int "reference never merges" 0 sref.merges;
  check_bool "reference replayed the history" true (sref.spec_replays >= 3)

(* --- the summary bound ----------------------------------------------------- *)

module UG_direct =
  Universal.Construction.Make (Spec.Gset_spec) (Pram.Memory.Direct_v)

(* Round-robin at operation granularity over [procs] handles: each pid
   adds values no other pid adds, except the [silent] pids, which only
   query.  Returns every handle's stats after [rounds] rounds. *)
let summary_run ~procs ~rounds ~silent =
  let t = UG_direct.create ~procs () in
  let handles =
    Array.init procs (fun pid -> UG_direct.attach t (ctx ~procs pid))
  in
  for round = 0 to rounds - 1 do
    Array.iteri
      (fun pid h ->
        if List.mem pid silent then
          ignore (UG_direct.query h Spec.Gset_spec.Members)
        else
          ignore
            (UG_direct.execute h (Spec.Gset_spec.Add ((round * procs) + pid))))
      handles
  done;
  Array.map UG_direct.stats handles

(* Every add is a distinct operation, so without pruning the summary
   would hold every committed entry.  Once every pid has published, the
   frontier trails the newest round by one, and the summary holds only
   the entries above it: at most one per pid. *)
let check_summary_bound ~procs ~rounds =
  let stats = summary_run ~procs ~rounds ~silent:[] in
  Array.iteri
    (fun pid (s : UG_direct.stats) ->
      check_bool
        (Printf.sprintf "procs %d, pid %d: summary %d <= procs" procs pid
           s.summary)
        true (s.summary <= procs))
    stats;
  check_int "the last pid committed everything" (procs * rounds)
    stats.(procs - 1).committed

let test_summary_bound_p4 () = check_summary_bound ~procs:4 ~rounds:2000
let test_summary_bound_p8 () = check_summary_bound ~procs:8 ~rounds:500

let test_summary_silent_peer () =
  (* A pid that never commits keeps an all-zero cover row in every memo,
     which pins the frontier at zero: nothing is pruned, and the summary
     grows with the history — the documented limit of frontier pruning. *)
  let procs = 4 and rounds = 500 in
  let stats = summary_run ~procs ~rounds ~silent:[ 3 ] in
  Array.iteri
    (fun pid (s : UG_direct.stats) ->
      check_int
        (Printf.sprintf "pid %d: summary = committed" pid)
        s.committed s.summary)
    stats;
  check_int "the silent pid committed every add" ((procs - 1) * rounds)
    stats.(3).committed

let () =
  Alcotest.run "incremental"
    [
      ( "explore-diff",
        [
          Alcotest.test_case "counter procs 2 (DPOR, all schedules)" `Quick
            test_explore_diff_counter_p2;
          Alcotest.test_case "gset procs 3 (DPOR, all schedules)" `Quick
            test_explore_diff_gset_p3;
          Alcotest.test_case "gset procs 3, all active (DPOR sample)" `Quick
            test_explore_diff_gset_p3_sampled;
          Alcotest.test_case "counter with crash branching" `Quick
            test_explore_diff_counter_crashes;
        ] );
      ( "random-diff",
        [
          QCheck_alcotest.to_alcotest qcheck_diff_counter;
          QCheck_alcotest.to_alcotest qcheck_diff_gset;
          QCheck_alcotest.to_alcotest qcheck_diff_sticky;
        ] );
      ( "o-delta",
        [
          Alcotest.test_case "replays O(m) vs m(m-1)/2" `Quick
            test_odelta_regression;
          Alcotest.test_case "solo process never replays" `Quick
            test_odelta_single_process;
          Alcotest.test_case "stats shape" `Quick test_stats_shape;
        ] );
      ( "summary",
        [
          Alcotest.test_case "bounded by procs, procs 4" `Quick
            test_summary_bound_p4;
          Alcotest.test_case "bounded by procs, procs 8" `Quick
            test_summary_bound_p8;
          Alcotest.test_case "a silent peer pins the frontier" `Quick
            test_summary_silent_peer;
        ] );
      ( "long-diff",
        [
          QCheck_alcotest.to_alcotest qcheck_diff_counter_long;
          QCheck_alcotest.to_alcotest qcheck_diff_gset_long;
          QCheck_alcotest.to_alcotest qcheck_diff_sticky_long;
        ] );
    ]
