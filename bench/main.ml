(* The benchmark harness.

   Two parts:

   1. EXPERIMENT TABLES (E1-E9): one table per quantitative claim of the
      paper — step bounds, adversary lower bounds, the hierarchy, scan
      cost formulas, universal-construction overhead, snapshot
      comparisons.  These regenerate the "evaluation" of the paper (a
      theory paper: its theorems play the role of tables/figures).  The
      recorded output lives in EXPERIMENTS.md.

   2. TIMING BENCHES (B1-B6): Bechamel wall-clock microbenchmarks of the
      flagship operations, on the sequential Direct backend (pure
      algorithmic cost) and on the Atomic-based native backend.

   Run everything:     dune exec bench/main.exe
   Tables only:        dune exec bench/main.exe -- --tables
   Timing only:        dune exec bench/main.exe -- --timing
   Quick versions:     dune exec bench/main.exe -- --quick
   JSON pipeline:      dune exec bench/main.exe -- --json [--quick]
                       (writes BENCH_PR10.json; see Experiments.Bench_json
                       for the row schema and EXPERIMENTS.md for the
                       recorded results) *)

open Bechamel

(* --- B1-B6: timing benches ------------------------------------------------ *)

module Scan_d = Wfa.Snapshot.Scan.Make (Wfa.Semilattice.Nat_max) (Wfa.Pram.Memory.Direct_v)
module Arr_d =
  Wfa.Snapshot.Snapshot_array.Make (Wfa.Snapshot.Slot_value.Int) (Wfa.Pram.Memory.Direct_v)
module DC_d = Universal.Direct.Counter (Pram.Memory.Direct_v)
module UC_d = Universal.Construction.Make (Spec.Counter_spec) (Pram.Memory.Direct_v)
module AA_d = Agreement.Approx_agreement.Make (Pram.Memory.Direct)
module Counter_native = Universal.Direct.Counter (Pram.Native.Versioned)

(* B1/B2 run pid 0 with no concurrent writers: that is the UNCONTENDED
   path, and the row names say so.  The contended counterparts — the same
   operations with [procs] real domains hammering the same grid — are
   measured by [run_contended_timing] below via [Native.run_parallel]. *)
let ctx0 ~procs = Wfa.Ctx.make ~procs ~pid:0 ()

let bench_scan ~procs =
  let h = Scan_d.attach (Scan_d.create ~variant:Wfa.Snapshot.Scan.Optimized ~procs) (ctx0 ~procs) in
  Test.make
    ~name:(Printf.sprintf "B1 scan op uncontended (n=%d)" procs)
    (Staged.stage (fun () -> ignore (Scan_d.scan h 1)))

let bench_snapshot_array ~procs =
  let h = Arr_d.attach (Arr_d.create ~variant:Wfa.Snapshot.Scan.Optimized ~procs) (ctx0 ~procs) in
  let i = ref 0 in
  Test.make
    ~name:
      (Printf.sprintf "B2 snapshot-array update+snap uncontended (n=%d)" procs)
    (Staged.stage (fun () ->
         incr i;
         Arr_d.update h !i;
         ignore (Arr_d.snapshot h)))

let bench_direct_counter ~procs =
  let h = DC_d.attach (DC_d.create ~procs) (ctx0 ~procs) in
  Test.make
    ~name:(Printf.sprintf "B3 direct counter inc+read (n=%d)" procs)
    (Staged.stage (fun () ->
         DC_d.inc h 1;
         ignore (DC_d.read h)))

(* The generic universal counter: history kept small by re-creating the
   object every [window] operations, so this measures the per-op cost at
   a bounded history size (the unbounded-growth behaviour is E9's
   story). *)
let bench_universal_counter ~procs ~window =
  let t = ref (UC_d.attach (UC_d.create ~procs ()) (ctx0 ~procs)) in
  let k = ref 0 in
  Test.make
    ~name:
      (Printf.sprintf "B4 universal counter inc (n=%d, history<=%d)" procs
         window)
    (Staged.stage (fun () ->
         incr k;
         if !k mod window = 0 then
           t := UC_d.attach (UC_d.create ~procs ()) (ctx0 ~procs);
         ignore (UC_d.execute !t (Spec.Counter_spec.Inc 1))))

let bench_agreement ~procs =
  Test.make
    ~name:(Printf.sprintf "B5 approximate agreement solo run (n=%d)" procs)
    (Staged.stage (fun () ->
         let h = AA_d.attach (AA_d.create ~procs ~epsilon:0.01) (ctx0 ~procs) in
         AA_d.input h 0.5;
         ignore (AA_d.output h)))

let bench_lingraph ~nodes =
  (* a chain precedence graph with alternating dominance, rebuilt from
     scratch: the Figure 3 construction cost *)
  let edges = List.init (nodes - 1) (fun i -> (i, i + 1)) in
  Test.make
    ~name:(Printf.sprintf "B6 lingraph build (k=%d)" nodes)
    (Staged.stage (fun () ->
         ignore
           (Universal.Lingraph.build ~nodes ~precedence_edges:edges
              ~dominates:(fun i j -> (i + j) mod 3 = 0))))

let run_timing ~quick =
  let quota = if quick then 0.25 else 1.0 in
  let tests =
    [
      bench_scan ~procs:4;
      bench_scan ~procs:8;
      bench_snapshot_array ~procs:4;
      bench_direct_counter ~procs:4;
      bench_universal_counter ~procs:4 ~window:64;
      bench_agreement ~procs:4;
      bench_lingraph ~nodes:64;
    ]
  in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  print_endline "\n### Timing benches (Bechamel, monotonic clock)";
  Printf.printf "%-48s %16s\n" "bench" "ns/op";
  Printf.printf "%s\n" (String.make 66 '-');
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg [ instance ] test in
      let results = Analyze.all ols instance raw in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ ns ] -> Printf.printf "%-48s %16.1f\n" name ns
          | Some _ | None -> Printf.printf "%-48s %16s\n" name "n/a")
        results)
    tests

(* B1/B2 contended counterparts: the same scan / snapshot-array ops with
   [procs] domains running concurrently on the shared grid (Bechamel
   stages single-threaded closures, so these are measured with the manual
   multi-domain harness shared with the JSON pipeline). *)
let run_contended_timing ~quick =
  print_endline
    "\n### B1/B2 contended counterparts (native domains, manual timing)";
  let rows =
    List.filter
      (fun r ->
        r.Experiments.Bench_json.metric = "ns_per_op"
        && (r.Experiments.Bench_json.procs = 4
           || r.Experiments.Bench_json.procs = 8))
      (Experiments.Bench_json.native_scan_rows ~quick)
  in
  Format.printf "%a" Experiments.Bench_json.pp_rows rows

(* --- E12: DPOR vs naive schedule counts ----------------------------------

   One table row per seed program: the number of maximal schedules the
   naive DFS enumerates against the representatives DPOR explores, with
   both verdicts.  This is the engine behind the exhaustive tier-1
   tests; the reduction factor is what makes 3-4 process configurations
   checkable at all (recorded in EXPERIMENTS.md). *)

module Scan_sim = Wfa.Snapshot.Scan.Make (Wfa.Semilattice.Nat_max) (Wfa.Pram.Memory.Sim_v)
module Scan_spec_sim = Wfa.Snapshot.Scan_spec.Make (Wfa.Semilattice.Nat_max)
module Scan_check_sim = Wfa.Lincheck.Make (Scan_spec_sim)
module DC_sim = Universal.Direct.Counter (Pram.Memory.Sim_v)
module Counter_check_sim = Wfa.Lincheck.Make (Spec.Counter_spec)
module AA_sim = Wfa.Agreement.Approx_agreement.Make (Wfa.Pram.Memory.Sim)

let explore_row name ~procs ?max_schedules program check =
  let run mode =
    let t0 = Monotonic_clock.now () in
    let outcome =
      Wfa.Pram.Explore.exhaustive ~mode ?max_schedules ~procs program check
    in
    let t1 = Monotonic_clock.now () in
    (outcome, Int64.to_float (Int64.sub t1 t0) /. 1e9)
  in
  let naive, t_naive = run Wfa.Pram.Explore.Naive in
  let dpor, t_dpor = run Wfa.Pram.Explore.Dpor in
  let verdict o =
    if o.Wfa.Pram.Explore.truncated then "truncated"
    else if o.Wfa.Pram.Explore.failures = [] then "ok"
    else "violation"
  in
  Printf.printf "%-28s %5d %10d %8d %8.1fx %9.2fs %8.2fs  %s/%s\n" name procs
    naive.Wfa.Pram.Explore.explored dpor.Wfa.Pram.Explore.explored
    (float_of_int naive.Wfa.Pram.Explore.explored
    /. float_of_int (max 1 dpor.Wfa.Pram.Explore.explored))
    t_naive t_dpor (verdict naive) (verdict dpor)

let run_explore_table ~quick () =
  print_endline
    "\n### E12 — DPOR vs naive exhaustive exploration (schedules explored)";
  Printf.printf "%-28s %5s %10s %8s %9s %10s %8s  %s\n" "program" "procs"
    "naive" "dpor" "reduction" "t_naive" "t_dpor" "verdicts";
  Printf.printf "%s\n" (String.make 96 '-');
  (* lost-update counter: the canonical race, found by both modes *)
  let lost_update () =
    let r = Pram.Memory.Sim.create 0 in
    fun _pid ->
      let v = Pram.Memory.Sim.read r in
      Pram.Memory.Sim.write r (v + 1);
      Pram.Register.get r
  in
  explore_row "lost-update counter" ~procs:2 lost_update (fun d _ ->
      match (Pram.Driver.result d 0, Pram.Driver.result d 1) with
      | Some a, Some b -> max a b = 2
      | _ -> true);
  (* 2-proc snapshot scan: write_l+read_max vs read_max *)
  let scan_recorder = ref (Spec.History.Recorder.create ()) in
  let scan_program () =
    scan_recorder := Spec.History.Recorder.create ();
    let t = Scan_sim.create ~variant:Wfa.Snapshot.Scan.Optimized ~procs:2 in
    fun pid ->
      let h = Scan_sim.attach t (Wfa.Ctx.make ~procs:2 ~pid ()) in
      if pid = 0 then begin
        ignore
          (Spec.History.Recorder.record !scan_recorder ~pid (`Write_l 1)
             (fun () ->
               Scan_sim.write_l h 1;
               `Unit));
        ignore
          (Spec.History.Recorder.record !scan_recorder ~pid `Read_max
             (fun () -> `Join (Scan_sim.read_max h)))
      end
      else
        ignore
          (Spec.History.Recorder.record !scan_recorder ~pid `Read_max
             (fun () -> `Join (Scan_sim.read_max h)))
  in
  explore_row "snapshot scan" ~procs:2 scan_program (fun _ _ ->
      Scan_check_sim.is_linearizable
        (Spec.History.Recorder.events !scan_recorder));
  (* 2-proc universal (direct) counter: inc vs read *)
  let ctr_recorder = ref (Spec.History.Recorder.create ()) in
  let ctr_program () =
    ctr_recorder := Spec.History.Recorder.create ();
    let t = DC_sim.create ~procs:2 in
    fun pid ->
      let h = DC_sim.attach t (Wfa.Ctx.make ~procs:2 ~pid ()) in
      if pid = 0 then
        ignore
          (Spec.History.Recorder.record !ctr_recorder ~pid
             (Spec.Counter_spec.Inc 1) (fun () ->
               DC_sim.inc h 1;
               Spec.Counter_spec.Unit))
      else
        ignore
          (Spec.History.Recorder.record !ctr_recorder ~pid
             Spec.Counter_spec.Read (fun () ->
               Spec.Counter_spec.Value (DC_sim.read h)))
  in
  explore_row "universal counter" ~procs:2 ctr_program (fun _ _ ->
      Counter_check_sim.is_linearizable
        (Spec.History.Recorder.events !ctr_recorder));
  if not quick then begin
    (* 3-proc approximate agreement: inputs already within epsilon/2 *)
    let aa_program () =
      let t = AA_sim.create ~procs:3 ~epsilon:8.0 in
      fun pid ->
        let h = AA_sim.attach t (Wfa.Ctx.make ~procs:3 ~pid ()) in
        let inputs = [| 0.0; 1.0; 2.0 |] in
        AA_sim.input h inputs.(pid);
        AA_sim.output h
    in
    explore_row "approx agreement" ~procs:3 ~max_schedules:20_000_000
      aa_program (fun d _ ->
        let out p = Pram.Driver.result d p in
        match (out 0, out 1, out 2) with
        | Some a, Some b, Some c ->
            let lo = Float.min a (Float.min b c)
            and hi = Float.max a (Float.max b c) in
            hi -. lo < 8.0 && lo >= 0.0 && hi <= 2.0
        | _ -> false)
  end

(* Native-domains throughput measured directly (Bechamel measures
   single-threaded closures; for parallel throughput we time a fixed op
   count across domains). *)
let run_native_throughput () =
  print_endline "\n### Native multicore throughput (Atomic registers)";
  let procs = min 4 (Wfa.Pram.Native.recommended_procs ()) in
  let ops_per_proc = 20_000 in
  let counter = Counter_native.create ~procs in
  let t0 = Monotonic_clock.now () in
  let _ =
    Wfa.Pram.Native.run_parallel ~procs (fun pid ->
        let h =
          Counter_native.attach counter (Wfa.Ctx.make ~procs ~pid ())
        in
        for _ = 1 to ops_per_proc do
          Counter_native.inc h 1
        done)
  in
  let t1 = Monotonic_clock.now () in
  let elapsed_ns = Int64.to_float (Int64.sub t1 t0) in
  let total_ops = procs * ops_per_proc in
  Printf.printf
    "  %d domains x %d incs: %.1f ms total, %.0f ns/op, final value %d \
     (expected %d)\n"
    procs ops_per_proc (elapsed_ns /. 1e6)
    (elapsed_ns /. float_of_int total_ops)
    (Counter_native.read (Counter_native.attach counter (ctx0 ~procs)))
    total_ops

(* --- the JSON pipeline ------------------------------------------------------ *)

let run_json ~quick =
  let path = Experiments.Bench_json.default_path in
  let rows = Experiments.Bench_json.run ~path ~quick () in
  Printf.printf "wrote %d rows to %s\n" (List.length rows) path;
  match Experiments.Bench_json.validate_file ~path () with
  | Ok n -> Printf.printf "schema check: ok (%d rows)\n" n
  | Error errs ->
      List.iter (Printf.eprintf "schema check FAILED: %s\n") errs;
      exit 1

let () =
  let args = Array.to_list Sys.argv in
  let quick = List.mem "--quick" args in
  let tables_only = List.mem "--tables" args in
  let timing_only = List.mem "--timing" args in
  let json = List.mem "--json" args in
  if json then run_json ~quick
  else begin
    if not timing_only then begin
      print_endline
        "=== Experiment tables (paper claims vs measurements; see \
         EXPERIMENTS.md) ===";
      Experiments.run_all ~quick ();
      run_explore_table ~quick ()
    end;
    if not tables_only then begin
      run_timing ~quick;
      run_contended_timing ~quick;
      run_native_throughput ()
    end
  end;
  print_endline "\nbench: done"
