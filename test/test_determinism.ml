(* Scheduler and replay determinism.

   Everything downstream of the driver — exhaustive exploration,
   counterexample shrinking, the lower-bound adversaries — relies on two
   properties checked here:

   - scheduling policies are deterministic functions of their seed, so a
     failing seed in a test log can always be re-run; and

   - [Driver.replay] of a recorded schedule reproduces the execution
     exactly (results, step counts and access trace), which is what makes
     a schedule a complete counterexample certificate. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_sched = Alcotest.(check (list int))

(* A workload with enough scheduling freedom that distinct policies
   produce distinct interleavings: each process does a read-modify-write
   loop on a shared cell plus writes to a private cell, and returns what
   it last read. *)
let program () =
  let shared = Pram.Memory.Sim.create 0 in
  let mine = Array.init 3 (fun _ -> Pram.Memory.Sim.create 0) in
  fun pid ->
    let last = ref 0 in
    for i = 1 to 4 do
      let v = Pram.Memory.Sim.read shared in
      last := v;
      Pram.Memory.Sim.write shared (v + 1);
      Pram.Memory.Sim.write mine.(pid) i
    done;
    !last

(* [f observer] builds a driver whose observer logs every fired access;
   returns the driver and its access trace, oldest first. *)
let traced f =
  let log = ref [] in
  let d = f (fun a -> log := a :: !log) in
  (d, List.rev !log)

let run_with sched =
  traced (fun observer ->
      let d = Pram.Driver.create ~observer ~procs:3 program in
      Pram.Scheduler.run ~max_steps:100_000 sched d;
      d)

let replay sched =
  traced (fun observer -> Pram.Driver.replay ~observer ~procs:3 program sched)

let results d = List.init 3 (fun p -> Pram.Driver.result d p)

let traces_equal a b =
  List.equal (fun (x : Pram.Trace.access) (y : Pram.Trace.access) -> x = y) a b

(* --- seed determinism ----------------------------------------------------- *)

let test_random_same_seed () =
  let d1, t1 = run_with (Pram.Scheduler.random ~seed:42 ()) in
  let d2, t2 = run_with (Pram.Scheduler.random ~seed:42 ()) in
  check_sched "same seed, same schedule" (Pram.Driver.schedule d1)
    (Pram.Driver.schedule d2);
  check_bool "same seed, same trace" true (traces_equal t1 t2);
  check_bool "same seed, same results" true (results d1 = results d2)

let test_random_different_seeds () =
  (* fixed seeds, so this is a deterministic assertion, not a flaky
     probabilistic one *)
  let d1, _ = run_with (Pram.Scheduler.random ~seed:1 ()) in
  let d2, _ = run_with (Pram.Scheduler.random ~seed:2 ()) in
  check_bool "different seeds explore different interleavings" true
    (Pram.Driver.schedule d1 <> Pram.Driver.schedule d2)

let test_random_with_crashes_same_seed () =
  let mk () =
    Pram.Scheduler.random ~crash_prob:0.1 ~min_alive:1 ~seed:7 ()
  in
  let d1, _ = run_with (mk ()) in
  let d2, _ = run_with (mk ()) in
  check_sched "crashing scheduler: same schedule" (Pram.Driver.schedule d1)
    (Pram.Driver.schedule d2);
  check_bool "crashing scheduler: same statuses" true
    (List.init 3 (fun p -> Pram.Driver.status d1 p)
    = List.init 3 (fun p -> Pram.Driver.status d2 p));
  check_bool "crashing scheduler: same results" true (results d1 = results d2)

let test_pct_same_seed () =
  let mk () = Pram.Scheduler.pct ~seed:11 ~depth:3 ~max_steps:50 () in
  let d1, t1 = run_with (mk ()) in
  let d2, t2 = run_with (mk ()) in
  check_sched "pct: same seed, same schedule" (Pram.Driver.schedule d1)
    (Pram.Driver.schedule d2);
  check_bool "pct: same seed, same trace" true (traces_equal t1 t2)

let test_pct_seed_sensitivity () =
  let run seed =
    fst (run_with (Pram.Scheduler.pct ~seed ~depth:3 ~max_steps:50 ()))
  in
  let scheds = List.init 8 (fun s -> Pram.Driver.schedule (run s)) in
  let distinct = List.sort_uniq compare scheds in
  check_bool "pct: several seeds yield several interleavings" true
    (List.length distinct > 1)

(* --- replay fidelity ------------------------------------------------------ *)

let test_replay_reproduces_execution () =
  let d1, t1 = run_with (Pram.Scheduler.random ~seed:123 ()) in
  let sched = Pram.Driver.schedule d1 in
  let d2, t2 = replay sched in
  check_sched "replay fires the same schedule" sched
    (Pram.Driver.schedule d2);
  check_bool "replay reproduces results" true (results d1 = results d2);
  check_bool "replay reproduces the trace" true (traces_equal t1 t2);
  check_int "replay reproduces total steps" (Pram.Driver.total_steps d1)
    (Pram.Driver.total_steps d2)

let test_of_encoded_replays_schedule () =
  (* [Explore.apply_encoded] must re-drive a pure step schedule exactly. *)
  let d1, _ = run_with (Pram.Scheduler.random ~seed:5 ()) in
  let enc = Pram.Driver.schedule d1 in
  let d2 = Pram.Driver.create ~procs:3 program in
  ignore (Pram.Explore.apply_encoded d2 enc);
  check_sched "of_encoded fires the same schedule" enc
    (Pram.Driver.schedule d2);
  check_bool "of_encoded reproduces results" true (results d1 = results d2)

let qcheck_replay_any_seed =
  QCheck.Test.make ~name:"replay reproduces results for any seed" ~count:100
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let d1, t1 = run_with (Pram.Scheduler.random ~seed ()) in
      let d2, t2 = replay (Pram.Driver.schedule d1) in
      results d1 = results d2 && traces_equal t1 t2)

let () =
  Alcotest.run "determinism"
    [
      ( "seed determinism",
        [
          Alcotest.test_case "random: same seed" `Quick test_random_same_seed;
          Alcotest.test_case "random: different seeds" `Quick
            test_random_different_seeds;
          Alcotest.test_case "random with crashes: same seed" `Quick
            test_random_with_crashes_same_seed;
          Alcotest.test_case "pct: same seed" `Quick test_pct_same_seed;
          Alcotest.test_case "pct: seed sensitivity" `Quick
            test_pct_seed_sensitivity;
        ] );
      ( "replay fidelity",
        [
          Alcotest.test_case "replay reproduces execution" `Quick
            test_replay_reproduces_execution;
          Alcotest.test_case "of_encoded replays schedule" `Quick
            test_of_encoded_replays_schedule;
          QCheck_alcotest.to_alcotest qcheck_replay_any_seed;
        ] );
    ]
