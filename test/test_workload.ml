(* Tests for the workload/schedule generators and the PCT scheduler. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_counter_script_deterministic () =
  let s1 = Workload.counter_script ~seed:5 ~ops_per_proc:6 in
  let s2 = Workload.counter_script ~seed:5 ~ops_per_proc:6 in
  check_bool "same seed, same script" true (s1 0 = s2 0 && s1 1 = s2 1);
  check_bool "memoized per pid" true (s1 0 == s1 0);
  check_int "length" 6 (List.length (s1 3))

let test_gset_script_varies_with_seed () =
  let a = Workload.gset_script ~seed:1 ~ops_per_proc:10 in
  let b = Workload.gset_script ~seed:2 ~ops_per_proc:10 in
  check_bool "different seeds differ" true (a 0 <> b 0)

(* Regression: scripts used to be drawn lazily from one shared
   Random.State, so the ops a pid received depended on which pids had
   been queried before it.  They must be a pure function of (seed, pid):
   querying pids in two different orders yields identical scripts. *)
let test_scripts_independent_of_query_order () =
  let pids = [ 0; 1; 2; 3 ] in
  let query order script = List.map (fun p -> (p, script p)) order in
  let forward = query pids (Workload.counter_script ~seed:7 ~ops_per_proc:9)
  and backward =
    query (List.rev pids) (Workload.counter_script ~seed:7 ~ops_per_proc:9)
  in
  List.iter
    (fun (p, ops) ->
      check_bool
        (Printf.sprintf "counter pid %d same ops either order" p)
        true
        (ops = List.assoc p backward))
    forward;
  let gf = query pids (Workload.gset_script ~seed:7 ~ops_per_proc:9)
  and gb =
    query [ 2; 0; 3; 1 ] (Workload.gset_script ~seed:7 ~ops_per_proc:9)
  in
  List.iter
    (fun (p, ops) ->
      check_bool
        (Printf.sprintf "gset pid %d same ops either order" p)
        true
        (ops = List.assoc p gb))
    gf;
  (* and distinct pids still get distinct streams *)
  let s = Workload.counter_script ~seed:7 ~ops_per_proc:9 in
  check_bool "pids differ" true (s 0 <> s 1)

let test_agreement_inputs_span_delta () =
  let inputs = Workload.agreement_inputs ~seed:9 ~procs:5 ~delta:100.0 in
  let lo = Array.fold_left Float.min infinity inputs in
  let hi = Array.fold_left Float.max neg_infinity inputs in
  check_bool "exact span" true (lo = 0.0 && hi = 100.0);
  check_bool "others inside" true
    (Array.for_all (fun x -> x >= 0.0 && x <= 100.0) inputs)

(* --- traffic front-end ------------------------------------------------------ *)

(* [n] operations on keys k0000, k0001, ... through [Traffic.drive]
   against recording closures; returns the sampler, the submitted keys
   and the size of each flush, in order. *)
let traffic_run ?loop ?flush_every n =
  let sampler =
    Telemetry.Sampler.create
      ~counters:(Telemetry.Counters.create ~procs:1 ())
      ()
  in
  let submitted = ref [] and pending = ref 0 and flushes = ref [] in
  Workload.Traffic.drive ~sampler ?loop ?flush_every
    ~ops:(List.init n (fun i -> (Workload.key_name i, i)))
    ~submit:(fun key _ ->
      submitted := key :: !submitted;
      incr pending)
    ~flush:(fun () ->
      flushes := !pending :: !flushes;
      pending := 0)
    ();
  (sampler, List.rev !submitted, List.rev !flushes)

let test_traffic_closed_loop () =
  let sampler, submitted, flushes = traffic_run ~flush_every:3 10 in
  check_bool "submissions in order" true
    (submitted = List.init 10 Workload.key_name);
  check_bool "flushes hold 3, 3, 3, 1" true (flushes = [ 3; 3; 3; 1 ]);
  check_int "sampler total" 10 (Telemetry.Sampler.total_ops sampler);
  match Telemetry.Sampler.latency sampler with
  | None -> Alcotest.fail "no latency filed"
  | Some st ->
      check_int "pooled count" 10 st.Telemetry.Stats.count;
      check_bool "latencies non-negative" true (st.Telemetry.Stats.min >= 0)

let test_traffic_open_loop_and_guards () =
  let sampler, _, _ =
    traffic_run ~loop:(Workload.Traffic.Open { rate = 1e5 }) 20
  in
  check_int "open loop files every op" 20
    (Telemetry.Sampler.total_ops sampler);
  let rejected f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  check_bool "flush_every 0 rejected" true
    (rejected (fun () -> traffic_run ~flush_every:0 1));
  List.iter
    (fun rate ->
      check_bool (Printf.sprintf "rate %g rejected" rate) true
        (rejected (fun () ->
             traffic_run ~loop:(Workload.Traffic.Open { rate }) 1)))
    [ 0.; Float.nan ]

let incr_program ~rounds () =
  let regs = Array.init 4 (fun _ -> Pram.Memory.Sim.create 0) in
  fun pid ->
    for i = 1 to rounds do
      Pram.Memory.Sim.write regs.(pid) i
    done;
    Pram.Register.get regs.(pid)

let run_with kind =
  let d = Pram.Driver.create ~procs:4 (incr_program ~rounds:6) in
  Pram.Scheduler.run (Workload.scheduler_of kind) d;
  for p = 0 to 3 do
    if Pram.Driver.runnable d p then ignore (Pram.Driver.run_solo d p)
  done;
  Pram.Driver.schedule d

let test_all_schedule_kinds_complete () =
  List.iter
    (fun kind -> ignore (run_with kind))
    (Workload.standard_schedules ~seeds:2)

let test_bursty_deterministic () =
  check_bool "bursty reproducible" true
    (run_with (Workload.Bursty 5) = run_with (Workload.Bursty 5))

let test_bursty_actually_bursts () =
  (* bursty schedules should contain runs of the same pid longer than
     round-robin ever produces *)
  let sched = run_with (Workload.Bursty 3) in
  let rec longest_run cur best = function
    | [] -> max cur best
    | a :: (b :: _ as rest) when a = b -> longest_run (cur + 1) best rest
    | _ :: rest -> longest_run 1 (max cur best) rest
  in
  check_bool "has a burst of length >= 3" true (longest_run 1 1 sched >= 3)

let test_standard_schedules_mix () =
  let kinds = Workload.standard_schedules ~seeds:3 in
  check_int "1 + 3*3 schedules" 10 (List.length kinds)

(* --- PCT ------------------------------------------------------------------ *)

let test_pct_completes_and_deterministic () =
  let run seed =
    let d = Pram.Driver.create ~procs:4 (incr_program ~rounds:6) in
    Pram.Scheduler.run (Pram.Scheduler.pct ~seed ~depth:3 ~max_steps:48 ()) d;
    Pram.Driver.schedule d
  in
  check_bool "completes deterministically" true (run 11 = run 11);
  check_bool "different seeds differ" true (run 11 <> run 12)

let test_pct_finds_ordering_bug () =
  (* A depth-1 "bug": the lost update needs write0 and write1 both after
     both reads.  PCT with small depth should find it within few seeds —
     and certainly within 200. *)
  let program () =
    let r = Pram.Memory.Sim.create 0 in
    fun _pid ->
      let v = Pram.Memory.Sim.read r in
      Pram.Memory.Sim.write r (v + 1);
      Pram.Register.get r
  in
  let bug_found seed =
    let d = Pram.Driver.create ~procs:2 program in
    Pram.Scheduler.run (Pram.Scheduler.pct ~seed ~depth:1 ~max_steps:4 ()) d;
    match (Pram.Driver.result d 0, Pram.Driver.result d 1) with
    | Some a, Some b -> max a b = 1 (* lost update *)
    | _ -> false
  in
  let rec search s = s < 200 && (bug_found s || search (s + 1)) in
  check_bool "PCT exposes the lost update" true (search 0)

let qcheck_pct_preserves_correct_algorithms =
  (* PCT schedules are still legal schedules: the scan stays
     linearizable under them (sanity for the scheduler itself) *)
  let module L = Semilattice.Nat_max in
  let module Scan = Snapshot.Scan.Make (L) (Pram.Memory.Sim_v) in
  let module Spec_scan = Snapshot.Scan_spec.Make (L) in
  let module Check = Lincheck.Make (Spec_scan) in
  QCheck.Test.make ~name:"scan linearizable under PCT" ~count:200
    QCheck.(pair (int_bound 1_000_000) (int_range 1 4))
    (fun (seed, depth) ->
      let recorder = Spec.History.Recorder.create () in
      let program () =
        let t = Scan.create ~variant:Snapshot.Scan.Optimized ~procs:3 in
        fun pid ->
          let h = Scan.attach t (Runtime.Ctx.make ~procs:3 ~pid ()) in
          ignore
            (Spec.History.Recorder.record recorder ~pid (`Write_l (pid + 1))
               (fun () ->
                 Scan.write_l h (pid + 1);
                 `Unit));
          ignore
            (Spec.History.Recorder.record recorder ~pid `Read_max (fun () ->
                 `Join (Scan.read_max h)))
      in
      let d = Pram.Driver.create ~procs:3 program in
      Pram.Scheduler.run (Pram.Scheduler.pct ~seed ~depth ~max_steps:60 ()) d;
      Check.is_linearizable (Spec.History.Recorder.events recorder))

let () =
  Alcotest.run "workload"
    [
      ( "scripts",
        [
          Alcotest.test_case "counter script deterministic" `Quick
            test_counter_script_deterministic;
          Alcotest.test_case "gset script varies" `Quick
            test_gset_script_varies_with_seed;
          Alcotest.test_case "scripts independent of query order" `Quick
            test_scripts_independent_of_query_order;
          Alcotest.test_case "agreement inputs span" `Quick
            test_agreement_inputs_span_delta;
        ] );
      ( "schedules",
        [
          Alcotest.test_case "all kinds complete" `Quick
            test_all_schedule_kinds_complete;
          Alcotest.test_case "bursty deterministic" `Quick
            test_bursty_deterministic;
          Alcotest.test_case "bursty bursts" `Quick test_bursty_actually_bursts;
          Alcotest.test_case "standard mix size" `Quick
            test_standard_schedules_mix;
        ] );
      ( "pct",
        [
          Alcotest.test_case "deterministic" `Quick
            test_pct_completes_and_deterministic;
          Alcotest.test_case "finds ordering bug" `Quick
            test_pct_finds_ordering_bug;
          QCheck_alcotest.to_alcotest qcheck_pct_preserves_correct_algorithms;
        ] );
      ( "traffic",
        [
          Alcotest.test_case "closed loop flushes and files" `Quick
            test_traffic_closed_loop;
          Alcotest.test_case "open loop and guards" `Quick
            test_traffic_open_loop_and_guards;
        ] );
    ]
