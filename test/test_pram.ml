(* Tests for the asynchronous-PRAM simulator substrate. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A tiny two-process program: each process increments a shared counter
   register [rounds] times with a read-then-write (not atomic increment —
   lost updates are possible under interleaving, which is exactly what the
   scheduler tests exploit). *)
let incr_program ~rounds () =
  let r = Pram.Memory.Sim.create ~name:"counter" 0 in
  fun _pid ->
    for _ = 1 to rounds do
      let v = Pram.Memory.Sim.read r in
      Pram.Memory.Sim.write r (v + 1)
    done;
    Pram.Register.get r

(* Each process writes its pid to its own slot then reads the other slot. *)
let slot_program () =
  let slots = Array.init 2 (fun i -> Pram.Memory.Sim.create ~name:(Printf.sprintf "slot%d" i) (-1)) in
  fun pid ->
    Pram.Memory.Sim.write slots.(pid) pid;
    Pram.Memory.Sim.read slots.(1 - pid)

let test_solo_run () =
  let d = Pram.Driver.create ~procs:2 (incr_program ~rounds:3) in
  check_bool "p0 finishes solo" true (Pram.Driver.run_solo d 0);
  check_int "p0 result" 3 (match Pram.Driver.result d 0 with Some v -> v | None -> -1);
  check_int "p0 steps = 2 per increment" 6 (Pram.Driver.steps d 0);
  check_bool "p1 still runnable" true (Pram.Driver.runnable d 1)

let test_lost_update_interleaving () =
  (* Schedule: both read (seeing 0), then both write 1: classic lost
     update, demonstrating that a step is exactly one atomic access. *)
  let d = Pram.Driver.create ~procs:2 (incr_program ~rounds:1) in
  Pram.Driver.step d 0 (* p0 reads 0 *);
  Pram.Driver.step d 1 (* p1 reads 0 *);
  Pram.Driver.step d 0 (* p0 writes 1 *);
  Pram.Driver.step d 1 (* p1 writes 1 *);
  check_int "lost update" 1 (match Pram.Driver.result d 1 with Some v -> v | None -> -1)

let test_sequential_no_lost_update () =
  let d = Pram.Driver.create ~procs:2 (incr_program ~rounds:5) in
  ignore (Pram.Driver.run_solo d 0);
  ignore (Pram.Driver.run_solo d 1);
  check_int "sequential total" 10 (match Pram.Driver.result d 1 with Some v -> v | None -> -1)

let test_determinism_replay () =
  let program = incr_program ~rounds:4 in
  let d1 = Pram.Driver.create ~procs:2 program in
  Pram.Scheduler.run (Pram.Scheduler.random ~seed:42 ()) d1;
  let sched = Pram.Driver.schedule d1 in
  let d2 = Pram.Driver.replay ~procs:2 program sched in
  check_int "replayed result p0" (Option.get (Pram.Driver.result d1 0))
    (Option.get (Pram.Driver.result d2 0));
  check_int "replayed result p1" (Option.get (Pram.Driver.result d1 1))
    (Option.get (Pram.Driver.result d2 1));
  check_int "replayed total steps" (Pram.Driver.total_steps d1)
    (Pram.Driver.total_steps d2);
  for p = 0 to 1 do
    check_int (Printf.sprintf "replayed reads p%d" p) (Pram.Driver.reads d1 p)
      (Pram.Driver.reads d2 p);
    check_int (Printf.sprintf "replayed writes p%d" p)
      (Pram.Driver.writes d1 p) (Pram.Driver.writes d2 p)
  done

let test_random_seed_stability () =
  let program = incr_program ~rounds:4 in
  let run seed =
    let d = Pram.Driver.create ~procs:2 program in
    Pram.Scheduler.run (Pram.Scheduler.random ~seed ()) d;
    Pram.Driver.schedule d
  in
  check_bool "same seed, same schedule" true (run 7 = run 7)

let test_crash_halts_forever () =
  let d = Pram.Driver.create ~procs:2 (incr_program ~rounds:3) in
  Pram.Driver.step d 0;
  Pram.Driver.crash d 0;
  check_bool "crashed not runnable" false (Pram.Driver.runnable d 0);
  check_bool "status halted" true (Pram.Driver.status d 0 = Pram.Driver.Halted);
  check_bool "other process unaffected" true (Pram.Driver.run_solo d 1);
  Alcotest.check_raises "stepping crashed raises"
    (Pram.Driver.Process_not_runnable 0) (fun () -> Pram.Driver.step d 0);
  (* its one fired access, the first read, is all it ever counts *)
  check_int "crashed reads stay 1" 1 (Pram.Driver.reads d 0);
  check_int "crashed writes stay 0" 0 (Pram.Driver.writes d 0)

let test_pending_view () =
  let d = Pram.Driver.create ~procs:2 slot_program in
  (match Pram.Driver.pending d 0 with
  | Some pv ->
      check_bool "first access is a write" true (pv.Pram.Driver.v_kind = Pram.Trace.Write);
      check_bool "targets own slot" true (pv.Pram.Driver.v_reg_name = "slot0")
  | None -> Alcotest.fail "expected a pending access");
  Pram.Driver.step d 0;
  match Pram.Driver.pending d 0 with
  | Some pv ->
      check_bool "second access is a read" true (pv.Pram.Driver.v_kind = Pram.Trace.Read);
      check_bool "targets other slot" true (pv.Pram.Driver.v_reg_name = "slot1")
  | None -> Alcotest.fail "expected a pending access"

let test_trace_recording () =
  let log = ref [] in
  let d =
    Pram.Driver.create ~observer:(fun a -> log := a :: !log) ~procs:2
      slot_program
  in
  Pram.Scheduler.run (Pram.Scheduler.round_robin ()) d;
  let tr = List.rev !log in
  check_int "4 accesses traced" 4 (List.length tr);
  let steps = List.map (fun a -> a.Pram.Trace.step) tr in
  check_bool "step indices are 0..3" true (steps = [ 0; 1; 2; 3 ]);
  (* the driver's own meter agrees with its feed, per pid and kind *)
  let fed p kind =
    List.length
      (List.filter
         (fun a -> a.Pram.Trace.pid = p && a.Pram.Trace.kind = kind)
         tr)
  in
  for p = 0 to 1 do
    check_int (Printf.sprintf "p%d reads = fed reads" p)
      (fed p Pram.Trace.Read) (Pram.Driver.reads d p);
    check_int (Printf.sprintf "p%d writes = fed writes" p)
      (fed p Pram.Trace.Write) (Pram.Driver.writes d p)
  done

let test_round_robin_fair () =
  let d = Pram.Driver.create ~procs:3 (incr_program ~rounds:10) in
  Pram.Scheduler.run (Pram.Scheduler.round_robin ()) d;
  check_int "p0 took its 20 steps" 20 (Pram.Driver.steps d 0);
  check_int "p1 took its 20 steps" 20 (Pram.Driver.steps d 1);
  check_int "p2 took its 20 steps" 20 (Pram.Driver.steps d 2)

let test_zero_access_process () =
  (* A body with no shared accesses finishes at its (lazy) start; the
     first step is a free completion. *)
  let d = Pram.Driver.create ~procs:1 (fun () -> fun pid -> pid + 42) in
  check_bool "not yet started" true (Pram.Driver.status d 0 = Pram.Driver.Running);
  Pram.Driver.step d 0;
  check_bool "done after free step" true (Pram.Driver.status d 0 = Pram.Driver.Done);
  check_int "result available" 42 (Option.get (Pram.Driver.result d 0));
  check_int "no access counted" 0 (Pram.Driver.steps d 0);
  check_bool "quiescent" true (Pram.Driver.all_quiescent d)

let test_run_solo_budget () =
  let d = Pram.Driver.create ~procs:1 (incr_program ~rounds:100) in
  check_bool "budget too small" false (Pram.Driver.run_solo ~max_steps:10 d 0);
  check_bool "budget large enough" true (Pram.Driver.run_solo d 0)

let test_native_parallel_counter () =
  (* Same read/write interface, real domains: per-process independent
     registers so the result is deterministic. *)
  let module M = Pram.Native.Versioned in
  let regs = Array.init 4 (fun _ -> M.create 0) in
  let results =
    Pram.Native.run_parallel ~procs:4 (fun p ->
        for _ = 1 to 1000 do
          M.write regs.(p) (M.read regs.(p) + 1)
        done;
        M.read regs.(p))
  in
  check_bool "each domain did its 1000 increments" true
    (List.for_all (fun v -> v = 1000) results)

(* --- cache-line padding ------------------------------------------------------ *)

let test_padding_semantics () =
  (* padded atomics behave exactly like plain ones *)
  let a = Pram.Padding.padded_atomic 41 in
  check_int "initial value" 41 (Atomic.get a);
  Atomic.set a 7;
  check_int "set/get" 7 (Atomic.get a);
  check_bool "compare_and_set" true (Atomic.compare_and_set a 7 8);
  check_int "after CAS" 8 (Atomic.get a);
  check_int "fetch_and_add" 8 (Atomic.fetch_and_add a 3);
  check_int "after faa" 11 (Atomic.get a);
  (* the padded block really owns [Padding.words] words *)
  check_int "padded block size" Pram.Padding.words
    (Obj.size (Obj.repr (Pram.Padding.padded_atomic 0)));
  (* non-paddable values pass through unchanged (physically) *)
  check_bool "immediate unchanged" true
    (Pram.Padding.copy_as_padded 5 == 5);
  let big = Array.make (Pram.Padding.words + 1) 0.0 in
  check_bool "already-large block unchanged" true
    (Pram.Padding.copy_as_padded big == big);
  (* structured values survive the copy with their fields intact —
     compared field-wise: whole-value structural equality is exactly the
     [Obj.size]-sensitive operation the interface warns against *)
  let x, y, z = Pram.Padding.copy_as_padded (1, "two", 3.0) in
  check_bool "tuple fields preserved" true
    (x = 1 && y = "two" && z = 3.0)

let test_padding_under_domains () =
  (* a padded atomic is still a correct atomic under real contention *)
  let a = Pram.Padding.padded_atomic 0 in
  let procs = 4 and per = 5_000 in
  let _ =
    Pram.Native.run_parallel ~procs (fun _ ->
        for _ = 1 to per do
          ignore (Atomic.fetch_and_add a 1)
        done)
  in
  check_int "no lost increments through the padded copy" (procs * per)
    (Atomic.get a)

(* --- encoded-schedule parsing ------------------------------------------------ *)

let qcheck_encoded_schedule_roundtrip =
  (* parse_encoded_schedule is the inverse of pp_encoded_schedule on
     every encoded action list (steps p >= 0, crashes -1 - p). *)
  QCheck.Test.make ~name:"parse_encoded_schedule inverts pp" ~count:200
    QCheck.(list (int_range (-4) 3))
    (fun sched ->
      let printed =
        Format.asprintf "%a" Pram.Trace.pp_encoded_schedule sched
      in
      Pram.Trace.parse_encoded_schedule printed = Ok sched)

let test_parse_encoded_schedule_cases () =
  check_bool "empty is ok" true (Pram.Trace.parse_encoded_schedule "" = Ok []);
  check_bool "whitespace only" true
    (Pram.Trace.parse_encoded_schedule " \n\t " = Ok []);
  check_bool "steps and crashes" true
    (Pram.Trace.parse_encoded_schedule "p2 p0 !p1 p2" = Ok [ 2; 0; -2; 2 ]);
  check_bool "newlines as separators" true
    (Pram.Trace.parse_encoded_schedule "p0\np1" = Ok [ 0; 1 ]);
  (match Pram.Trace.parse_encoded_schedule "p0 bogus p1" with
  | Ok _ -> Alcotest.fail "bad token accepted"
  | Error msg ->
      check_bool "error names the token" true
        (let needle = "bogus" in
         let n = String.length needle and m = String.length msg in
         let rec find i =
           i + n <= m && (String.sub msg i n = needle || find (i + 1))
         in
         find 0));
  match Pram.Trace.parse_encoded_schedule "p" with
  | Ok _ -> Alcotest.fail "bare p accepted"
  | Error _ -> ()

(* --- the conflict relation --------------------------------------------------- *)

let access_gen =
  QCheck.Gen.(
    map
      (fun (pid, reg_id, kind) ->
        {
          Pram.Trace.step = 0;
          pid;
          reg_id;
          reg_name = Printf.sprintf "r%d" reg_id;
          kind = (if kind then Pram.Trace.Read else Pram.Trace.Write);
        })
      (triple (int_bound 3) (int_bound 3) bool))

let qcheck_dependent_symmetric =
  QCheck.Test.make ~name:"Trace.dependent is symmetric" ~count:500
    (QCheck.make QCheck.Gen.(pair access_gen access_gen))
    (fun (a, b) -> Pram.Trace.dependent a b = Pram.Trace.dependent b a)

let test_swap_independent_accesses_preserves_results () =
  (* The semantic content of the conflict relation (the DPOR soundness
     argument): swapping two ADJACENT INDEPENDENT accesses in a recorded
     schedule is unobservable — every process's final result is
     unchanged under replay.  Exercised at procs = 2..4 over several
     seeds, swapping at every independent adjacent pair. *)
  for procs = 2 to 4 do
    List.iter
      (fun seed ->
        (* own-slot writes and neighbour reads (mostly independent) plus
           a contended read-inc of a shared counter (dependent), so both
           sides of the conflict relation appear in every trace *)
        let program () =
          let slots =
            Array.init procs (fun i ->
                Pram.Memory.Sim.create ~name:(Printf.sprintf "s%d" i) 0)
          in
          let shared = Pram.Memory.Sim.create ~name:"shared" 0 in
          fun pid ->
            Pram.Memory.Sim.write slots.(pid) (pid + 1);
            let v = Pram.Memory.Sim.read shared in
            Pram.Memory.Sim.write shared (v + 1);
            Pram.Memory.Sim.read slots.((pid + 1) mod procs)
            + Pram.Memory.Sim.read slots.(pid)
        in
        let log = ref [] in
        let d =
          Pram.Driver.create ~observer:(fun a -> log := a :: !log) ~procs
            program
        in
        Pram.Scheduler.run (Pram.Scheduler.random ~seed ()) d;
        let sched = Array.of_list (Pram.Driver.schedule d) in
        let trace = Array.of_list (List.rev !log) in
        let results d = List.init procs (fun p -> Pram.Driver.result d p) in
        let baseline = results d in
        for i = 0 to Array.length trace - 2 do
          if not (Pram.Trace.dependent trace.(i) trace.(i + 1)) then begin
            let swapped = Array.copy sched in
            let tmp = swapped.(i) in
            swapped.(i) <- swapped.(i + 1);
            swapped.(i + 1) <- tmp;
            let d' =
              Pram.Driver.replay ~procs program (Array.to_list swapped)
            in
            check_bool
              (Printf.sprintf "procs=%d seed=%d swap@%d preserves results"
                 procs seed i)
              true
              (results d' = baseline)
          end
        done)
      [ 1; 2; 3 ]
  done

let qcheck_replay_determinism =
  (* Property: for random programs (random interleaving seeds), replaying
     the recorded schedule reproduces results and step counts. *)
  QCheck.Test.make ~name:"replay reproduces execution" ~count:100
    QCheck.(pair small_nat (int_bound 1_000_000))
    (fun (rounds, seed) ->
      let rounds = 1 + (rounds mod 6) in
      let program = incr_program ~rounds in
      let d1 = Pram.Driver.create ~procs:3 program in
      Pram.Scheduler.run (Pram.Scheduler.random ~seed ()) d1;
      let d2 = Pram.Driver.replay ~procs:3 program (Pram.Driver.schedule d1) in
      List.for_all
        (fun p -> Pram.Driver.result d1 p = Pram.Driver.result d2 p)
        [ 0; 1; 2 ]
      && Pram.Driver.total_steps d1 = Pram.Driver.total_steps d2)

let qcheck_crashes_never_block_others =
  (* Wait-freedom at the substrate level: crashing some processes never
     prevents the survivor from finishing its (finite) program. *)
  QCheck.Test.make ~name:"crashes never block survivors" ~count:100
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let d = Pram.Driver.create ~procs:4 (incr_program ~rounds:5) in
      Pram.Scheduler.run
        (Pram.Scheduler.random ~crash_prob:0.2 ~min_alive:1 ~seed ())
        d;
      (* After the random run, any process not crashed can finish solo. *)
      List.for_all
        (fun p ->
          match Pram.Driver.status d p with
          | Pram.Driver.Halted | Pram.Driver.Done -> true
          | Pram.Driver.Running -> Pram.Driver.run_solo d p)
        [ 0; 1; 2; 3 ])

(* --- scheduler fuel accounting --------------------------------------------- *)

(* [Driver.crash] of an already-crashed (or finished) process is a
   tolerant no-op, so a scheduler stuck emitting such crashes makes no
   progress at all.  [Scheduler.run] must charge EVERY action against
   the step budget — when only [Step] was charged, this test spun
   forever instead of raising. *)
let test_crash_charges_fuel () =
  let d = Pram.Driver.create ~procs:2 (incr_program ~rounds:1) in
  let always_crash_p0 = fun _ -> Pram.Scheduler.Crash 0 in
  (match Pram.Scheduler.run ~max_steps:50 always_crash_p0 d with
  | () -> Alcotest.fail "expected the step budget to run out"
  | exception Failure _ -> ());
  check_bool "p0 crashed by the first action" true
    (Pram.Driver.status d 0 = Pram.Driver.Halted);
  check_bool "p1 untouched and still runnable" true (Pram.Driver.runnable d 1)

(* --- PCT change points ------------------------------------------------------ *)

(* Change points must be distinct (each colliding draw silently loses a
   priority change, i.e. one of the d-1 constraints) and clamped to the
   assumed execution bound. *)
let test_pct_change_points_distinct () =
  List.iter
    (fun (seed, depth, max_steps) ->
      let cps = Pram.Scheduler.pct_change_points ~seed ~depth ~max_steps in
      let bound = max 1 max_steps in
      let expected = min depth bound in
      check_int
        (Printf.sprintf "seed=%d depth=%d max_steps=%d: count" seed depth
           max_steps)
        expected (List.length cps);
      check_int "all distinct" expected
        (List.length (List.sort_uniq compare cps));
      List.iter
        (fun i -> check_bool "in range" true (i >= 0 && i < bound))
        cps;
      check_bool "deterministic in the seed" true
        (cps = Pram.Scheduler.pct_change_points ~seed ~depth ~max_steps))
    [ (0, 2, 10); (1, 3, 3); (7, 5, 64); (42, 4, 2); (9, 1, 1); (3, 2, 0) ]

(* --- PCT regression ---------------------------------------------------------- *)

(* A 2-constraint ordering bug: process 1's read must land strictly
   between process 0's two writes.  p1's result is the value it read;
   the bug is reading 1.  With depth 2 and the true bound max_steps = 3,
   a correct PCT finds it exactly when p0 starts with the higher
   priority and the change-point set is {1, 2}: the demotion at global
   step 1 must flip the leader BEFORE that step runs.  The pre-fix
   scheduler demoted only after stepping the old leader (shifting the
   window by one step, so it needs 0 as a change point — demoting at
   index 0 before p0 has written anything) and drew change points with
   replacement. *)
let order_bug_program () =
  let r = Pram.Memory.Sim.create ~name:"cell" 0 in
  fun pid ->
    if pid = 0 then begin
      Pram.Memory.Sim.write r 1;
      Pram.Memory.Sim.write r 2;
      0
    end
    else Pram.Memory.Sim.read r

let finds_order_bug sched =
  let d = Pram.Driver.create ~procs:2 order_bug_program in
  Pram.Scheduler.run ~max_steps:1_000 sched d;
  Pram.Driver.result d 1 = Some 1

(* A faithful replica of the pre-fix [Scheduler.pct]: change points
   drawn WITH replacement, and the change-point demotion applied only
   after the current leader takes its step — the two bugs this PR
   fixes. *)
let buggy_pct ~seed ~depth ~max_steps () =
  let rng = Random.State.make [| seed; depth |] in
  let change_points =
    List.init depth (fun _ -> Random.State.int rng (max 1 max_steps))
  in
  let priorities = Hashtbl.create 8 in
  let floor_priority = ref 0.0 in
  let steps_taken = ref 0 in
  fun driver ->
    let n = Pram.Driver.procs driver in
    for p = 0 to n - 1 do
      if not (Hashtbl.mem priorities p) then
        Hashtbl.add priorities p (1.0 +. Random.State.float rng 1.0)
    done;
    match Pram.Driver.runnable_list driver with
    | [] -> Pram.Scheduler.Stop
    | runnable ->
        let p =
          Option.get
            (List.fold_left
               (fun acc q ->
                 match acc with
                 | None -> Some q
                 | Some b ->
                     if Hashtbl.find priorities q > Hashtbl.find priorities b
                     then Some q
                     else acc)
               None runnable)
        in
        if List.mem !steps_taken change_points then begin
          floor_priority := !floor_priority -. 1.0;
          Hashtbl.replace priorities p !floor_priority
        end;
        incr steps_taken;
        Pram.Scheduler.Step p

let test_pct_regression () =
  let depth = 2 and max_steps = 3 in
  let seeds = List.init 200 Fun.id in
  let fixed_finds seed =
    finds_order_bug (Pram.Scheduler.pct ~seed ~depth ~max_steps ())
  in
  let buggy_finds seed = finds_order_bug (buggy_pct ~seed ~depth ~max_steps ()) in
  check_bool "fixed pct finds the 2-constraint bug on some seed" true
    (List.exists fixed_finds seeds);
  (* the actual regression pin: seeds where the fixed scheduler finds
     the bug and the pre-fix replica misses it — if either fix is
     reverted the two behave identically per seed and this set empties *)
  check_bool "some seed separates fixed pct from the pre-fix replica" true
    (List.exists (fun s -> fixed_finds s && not (buggy_finds s)) seeds);
  (* the detection rate should be in the ballpark of the PCT bound
     1/(n k^(d-1)) = 1/6 — demand at least half of that over 200 seeds *)
  let hits = List.length (List.filter fixed_finds seeds) in
  check_bool "fixed pct detection rate is not degenerate" true (hits >= 16)

let suite =
  [
    Alcotest.test_case "solo run" `Quick test_solo_run;
    Alcotest.test_case "lost update interleaving" `Quick test_lost_update_interleaving;
    Alcotest.test_case "sequential scheduler" `Quick test_sequential_no_lost_update;
    Alcotest.test_case "determinism and replay" `Quick test_determinism_replay;
    Alcotest.test_case "random seed stability" `Quick test_random_seed_stability;
    Alcotest.test_case "crash halts forever" `Quick test_crash_halts_forever;
    Alcotest.test_case "pending access view" `Quick test_pending_view;
    Alcotest.test_case "trace recording" `Quick test_trace_recording;
    Alcotest.test_case "round robin fairness" `Quick test_round_robin_fair;
    Alcotest.test_case "zero-access process" `Quick test_zero_access_process;
    Alcotest.test_case "run_solo budget" `Quick test_run_solo_budget;
    Alcotest.test_case "native parallel counter" `Quick test_native_parallel_counter;
    Alcotest.test_case "padding semantics" `Quick test_padding_semantics;
    Alcotest.test_case "padding under domains" `Quick
      test_padding_under_domains;
    Alcotest.test_case "parse_encoded_schedule cases" `Quick
      test_parse_encoded_schedule_cases;
    Alcotest.test_case "swapping independent accesses is unobservable" `Quick
      test_swap_independent_accesses_preserves_results;
    QCheck_alcotest.to_alcotest qcheck_encoded_schedule_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_dependent_symmetric;
    QCheck_alcotest.to_alcotest qcheck_replay_determinism;
    QCheck_alcotest.to_alcotest qcheck_crashes_never_block_others;
    Alcotest.test_case "crash charges fuel" `Quick test_crash_charges_fuel;
    Alcotest.test_case "pct change points distinct" `Quick
      test_pct_change_points_distinct;
    Alcotest.test_case "pct order-bug regression" `Quick test_pct_regression;
  ]

let () = Alcotest.run "pram" [ ("pram", suite) ]
