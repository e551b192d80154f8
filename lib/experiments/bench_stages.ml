(* The bench stages: the measurements `wfa bench` runs before the
   paper's experiments (the e_*.ml stages, which reuse this module's
   fixtures), in the order their rows appear in BENCH.json.  Rows are
   built with the Bench_json codec and checked by the Bench_gates table.

   - sim:    exact access, replay, store and schedule-exploration counts
             from the deterministic simulator;
   - native: wall clock over real domains at procs 1/2/4/8, each timing
             with the wall_ns / ops_per_sec / ns_per_op family;
   - direct: single-threaded ns/op of the flagship operations on the
             sequential backend.

   Every stage span and direct timing is read from one monotonic clock
   ([timed]).  Every native store run, here and in `wfa top`, goes
   through one harness ([drive_store]); its per-operation latencies,
   timed by Workload.Traffic, and its windowed series both come from
   the run's telemetry sampler. *)

open Bench_json

(* Seconds [f] takes, on the monotonic clock. *)
let timed f =
  let t0 = Monotonic_clock.now () in
  let x = f () in
  (x, Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e9)

(* --- measurement: simulator step counts ----------------------------------- *)

let procs_sweep = [ 1; 2; 4; 8 ]

module Scan_sim = Snapshot.Scan.Make (Semilattice.Nat_max) (Pram.Memory.Sim_v)

let scan_variants =
  [ Snapshot.Scan.Plain; Snapshot.Scan.Optimized; Snapshot.Scan.Adaptive;
    Snapshot.Scan.Lattice ]

let variant_name = function
  | Snapshot.Scan.Plain -> "scan_plain"
  | Snapshot.Scan.Optimized -> "scan_opt"
  | Snapshot.Scan.Adaptive -> "scan_adaptive"
  | Snapshot.Scan.Lattice -> "scan_lattice"

(* One scan per process; [contended] interleaves all of them round-robin,
   otherwise only pid 0 runs.  Reads and writes are the driver's own
   counts; the registers touched are the distinct ids on its access
   feed.  With one scan per process a Lattice scan never retries, so its
   counts equal the formula on either schedule; Adaptive's do only
   uncontended.  The validator pins both against the formulas. *)
let sim_scan_rows ~variant ~procs ~contended =
  let touched = Hashtbl.create 64 in
  let program () =
    let t = Scan_sim.create ~variant ~procs in
    fun pid ->
      let h = Scan_sim.attach t (Runtime.Ctx.make ~procs ~pid ()) in
      ignore (Scan_sim.scan h (pid + 1))
  in
  let d =
    Pram.Driver.create
      ~observer:(fun a -> Hashtbl.replace touched a.Pram.Trace.reg_id ())
      ~procs program
  in
  if contended then
    Pram.Scheduler.run (Pram.Scheduler.round_robin ()) d
  else ignore (Pram.Driver.run_solo d 0);
  let bench =
    Printf.sprintf "%s_%s" (variant_name variant)
      (if contended then "contended" else "uncontended")
  in
  let mk metric value =
    row ~bench ~procs ~backend:"sim" ~metric ~value:(float_of_int value)
      ~unit_:"accesses"
  in
  [
    mk "reads" (Pram.Driver.reads d 0);
    mk "writes" (Pram.Driver.writes d 0);
    row ~bench ~procs ~backend:"sim" ~metric:"registers_touched"
      ~value:(float_of_int (Hashtbl.length touched))
      ~unit_:"registers";
  ]

(* Reads and writes of process 0's body, running solo. *)
let solo_rows ~bench ~procs program =
  let d = Pram.Driver.create ~procs program in
  ignore (Pram.Driver.run_solo d 0);
  List.map
    (fun (metric, count) ->
      row ~bench ~procs ~backend:"sim" ~metric
        ~value:(float_of_int (count d 0))
        ~unit_:"accesses")
    [ ("reads", Pram.Driver.reads); ("writes", Pram.Driver.writes) ]

module UC_sim = Universal.Construction.Make (Spec.Counter_spec) (Pram.Memory.Sim_v)

(* Per-operation step histogram of the generic universal construction
   under round-robin contention: the history grows with every operation,
   so per-op access counts spread out.  The driver observer bumps a
   per-pid access count; each body reads its own before and after every
   [execute], which is exact because the observer fires before [step]
   resumes the fiber.  Operations come from the seeded workload
   scripts. *)
let sim_universal_rows ~procs ~ops_per_proc =
  let accesses = Array.make procs 0 in
  let hist = Telemetry.Histogram.create () in
  let script = Workload.counter_script ~seed:11 ~ops_per_proc in
  let program () =
    let t = UC_sim.create ~procs () in
    fun pid ->
      let h = UC_sim.attach t (Runtime.Ctx.make ~procs ~pid ()) in
      List.iter
        (fun op ->
          let before = accesses.(pid) in
          ignore (UC_sim.execute h op);
          Telemetry.Histogram.add hist (accesses.(pid) - before))
        (script pid)
  in
  let d =
    Pram.Driver.create
      ~observer:(fun a ->
        accesses.(a.Pram.Trace.pid) <- accesses.(a.Pram.Trace.pid) + 1)
      ~procs program
  in
  Pram.Scheduler.run ~max_steps:50_000_000 (Pram.Scheduler.round_robin ()) d;
  match Telemetry.Histogram.stats hist with
  | None -> []
  | Some s ->
      let mk metric value =
        row ~bench:"universal_counter_apply" ~procs ~backend:"sim" ~metric
          ~value ~unit_:"accesses"
      in
      [
        mk "steps_min" (float_of_int s.Telemetry.Stats.min);
        mk "steps_mean" s.Telemetry.Stats.mean;
        mk "steps_p99" (float_of_int s.Telemetry.Stats.p99);
        mk "steps_max" (float_of_int s.Telemetry.Stats.max);
      ]

(* Universal-construction benches: the same deterministic script in
   both construction modes.  Synchronization accesses are identical by
   design (the memo only changes local work — test/test_incremental.ml
   asserts this per schedule); what separates the modes is the number of
   sequential-spec replay calls, emitted side by side so the O(m) vs
   O(m^2) gap is visible in the committed JSON. *)
module Sim_universal (O : Spec.Object_spec.S) = struct
  module U = Universal.Construction.Make (O) (Pram.Memory.Sim_v)

  let run ~procs ~mode ~script =
    let replays = Array.make procs 0 in
    let program () =
      let t = U.create ~procs () in
      fun pid ->
        let h = U.attach ~mode t (Runtime.Ctx.make ~procs ~pid ()) in
        List.iter (fun op -> ignore (U.execute h op)) (script pid);
        replays.(pid) <- (U.stats h).U.spec_replays
    in
    let d = Pram.Driver.create ~procs program in
    Pram.Scheduler.run ~max_steps:50_000_000 (Pram.Scheduler.round_robin ()) d;
    let total count =
      let acc = ref 0 in
      for p = 0 to procs - 1 do
        acc := !acc + count d p
      done;
      !acc
    in
    ( total Pram.Driver.reads,
      total Pram.Driver.writes,
      Array.fold_left ( + ) 0 replays )

  let rows ~bench ~procs ~ops_per_proc ~script =
    let reads, writes, inc_replays = run ~procs ~mode:U.Incremental ~script in
    let reads', writes', ref_replays = run ~procs ~mode:U.Reference ~script in
    if reads <> reads' || writes <> writes' then
      failwith
        (Printf.sprintf
           "Bench_json: %s procs=%d: construction modes disagree on \
            synchronization accesses (%d/%d vs %d/%d)"
           bench procs reads writes reads' writes');
    let mk metric value unit_ =
      row ~bench ~procs ~backend:"sim" ~metric
        ~value:(float_of_int value) ~unit_
    in
    [
      mk "reads" reads "accesses";
      mk "writes" writes "accesses";
      mk "ops" (procs * ops_per_proc) "ops";
      mk "spec_replays" inc_replays "calls";
      mk "spec_replays_reference" ref_replays "calls";
    ]
end

module Sim_uc = Sim_universal (Spec.Counter_spec)
module Sim_ug = Sim_universal (Spec.Gset_spec)

(* Commute-heavy scripts (increments/adds with a sprinkling of reads):
   the workload class the paper's Property 1 is about, and the one where
   the incremental memo merges every delta without rebuilds. *)
let bench_counter_script ~ops_per_proc pid =
  List.init ops_per_proc (fun i ->
      if i mod 4 = 3 then Spec.Counter_spec.Read
      else Spec.Counter_spec.Inc (pid + 1))

let bench_gset_script ~ops_per_proc pid =
  List.init ops_per_proc (fun i ->
      if i mod 4 = 3 then Spec.Gset_spec.Members
      else Spec.Gset_spec.Add ((pid * ops_per_proc) + i))

let sim_universal_mode_rows ~quick ~procs =
  let ops_per_proc = if quick then 6 else 12 in
  Sim_uc.rows ~bench:"universal_counter" ~procs ~ops_per_proc
    ~script:(bench_counter_script ~ops_per_proc)
  @ Sim_ug.rows ~bench:"universal_gset" ~procs ~ops_per_proc
      ~script:(bench_gset_script ~ops_per_proc)

module AA_sim = Agreement.Approx_agreement.Make (Pram.Memory.Sim)

let sim_agreement_rows ~procs =
  let program () =
    let t = AA_sim.create ~procs ~epsilon:0.01 in
    fun pid ->
      let h = AA_sim.attach t (Runtime.Ctx.make ~procs ~pid ()) in
      AA_sim.input h 0.5;
      ignore (AA_sim.output h)
  in
  let d = Pram.Driver.create ~procs program in
  ignore (Pram.Driver.run_solo d 0);
  [
    row ~bench:"approx_agreement_solo" ~procs ~backend:"sim" ~metric:"steps"
      ~value:(float_of_int (Pram.Driver.steps d 0))
      ~unit_:"accesses";
  ]

(* --- measurement: keyed store, batched vs unbatched --------------------------

   The same zipfian keyed script through Wfa.Store under both batching
   policies.  On the simulator the counters are exact and deterministic:
   ops committed, graph entries published for them (the quantity
   batching shrinks — unbatched publishes exactly one entry per op),
   operations that landed in multi-op entries, chunks closed early by
   the Property 1 check, and sequential-spec replays.  The native rows
   are the wall-clock counterpart, measured through the Workload.Traffic
   front-end so latency percentiles ride along. *)

module Store_sim = Universal.Store.Make (Spec.Counter_spec) (Pram.Memory.Sim_v)
module Store_native =
  Universal.Store.Make (Spec.Counter_spec) (Pram.Native.Versioned)

let store_bench_name = function
  | Universal.Store.Unbatched -> "store_unbatched"
  | Universal.Store.Batched _ -> "store_batched"

let sim_store_rows ~quick ~procs =
  let ops_per_proc = if quick then 6 else 12 in
  let script =
    Workload.keyed_counter_script ~seed:13 ~keys:8 ~theta:0.9
      ~read_fraction:0.0 ~ops_per_proc
  in
  let run batching =
    let stats = Array.make procs None in
    let program () =
      let t = Store_sim.create ~shards:4 ~procs () in
      fun pid ->
        let h =
          Store_sim.attach ~batching t (Runtime.Ctx.make ~procs ~pid ())
        in
        List.iter (fun (key, op) -> Store_sim.submit h ~key op) (script pid);
        ignore (Store_sim.flush h);
        stats.(pid) <- Some (Store_sim.stats h)
    in
    let d = Pram.Driver.create ~procs program in
    Pram.Scheduler.run ~max_steps:50_000_000 (Pram.Scheduler.round_robin ()) d;
    Array.fold_left
      (fun (ops, entries, batched, fallbacks, replays) -> function
        | None -> (ops, entries, batched, fallbacks, replays)
        | Some s ->
            ( ops + s.Store_sim.ops,
              entries + s.Store_sim.entries,
              batched + s.Store_sim.batched_ops,
              fallbacks + s.Store_sim.fallbacks,
              replays + s.Store_sim.spec_replays ))
      (0, 0, 0, 0, 0) stats
  in
  List.concat_map
    (fun batching ->
      let ops, entries, batched_ops, fallbacks, spec_replays = run batching in
      let bench = store_bench_name batching in
      let mk metric value unit_ =
        row ~bench ~procs ~backend:"sim" ~metric
          ~value:(float_of_int value) ~unit_
      in
      [
        mk "ops" ops "ops";
        mk "entries" entries "entries";
        mk "batched_ops" batched_ops "ops";
        mk "fallbacks" fallbacks "chunks";
        mk "spec_replays" spec_replays "calls";
      ])
    [ Universal.Store.Batched 8; Universal.Store.Unbatched ]

(* --- measurement: schedule-exploration coverage -----------------------------

   The ways search (Pram.Explore.search) emits explored/pruned/sampled
   counters; committing them makes schedule-coverage regressions
   diffable across PRs, the same way the step counts pin the cost
   formulas.  Fixtures are the injected-bug corpus:

   - explore_scan_dpor:          atomic scan, parallel unbounded DPOR —
                                 must stay clean (violations = 0);
   - explore_counter_bounded:    lost-update counter under the default
                                 pre-emption bound — the bug needs one
                                 pre-emption, so bounded DPOR finds it;
   - explore_*_uniform (procs 6): seeded uniform sampling on the
                                 lost-update counter, the racy max
                                 register, and the naive collect — each
                                 must surface >= 1 violation within the
                                 budget (the collect's is a real-time
                                 -order bug systematic DPOR misses).

   All stages are deterministic (fixed seeds, jobs-independent task
   partition), so the committed counts are exactly reproducible. *)

(* A program over one shared register, initially 0, whose runs pass iff
   the register ends at [procs]. *)
let ends_at ~procs body () =
  let r = Pram.Memory.Sim.create 0 in
  {
    Pram.Explore.body = body r;
    check = (fun _d _sched -> Pram.Register.get r = procs);
    pp_history = None;
  }

(* Every process increments a shared counter non-atomically (read, then
   write v+1).  The final value is [procs] iff no update was lost. *)
let lost_update ~procs =
  ends_at ~procs (fun r _pid ->
      let v = Pram.Memory.Sim.read r in
      Pram.Memory.Sim.write r (v + 1))

(* Each process proposes pid+1 with a racy read-test-write maximum: a
   process holding a stale read can overwrite a larger proposal, so the
   final value can undershoot the true maximum [procs]. *)
let racy_max ~procs =
  ends_at ~procs (fun r pid ->
      let v = Pram.Memory.Sim.read r in
      if v < pid + 1 then Pram.Memory.Sim.write r (pid + 1))

module Scan_spec_nm = Snapshot.Scan_spec.Make (Semilattice.Nat_max)
module Scan_lin = Lincheck.Make (Scan_spec_nm)

(* The 2-process atomic-scan fixture from the exhaustive tests (writer +
   two scanners' worth of history), checked through the full
   linearizability oracle. *)
let scan_program record =
  let procs = 2 in
  let t = Scan_sim.create ~variant:Snapshot.Scan.Optimized ~procs in
  fun pid ->
    let h = Scan_sim.attach t (Runtime.Ctx.make ~procs ~pid ()) in
    if pid = 0 then
      ignore
        (record ~pid (`Write_l 1) (fun () ->
             Scan_sim.write_l h 1;
             `Unit));
    ignore (record ~pid `Read_max (fun () -> `Join (Scan_sim.read_max h)))

module Collect_sim =
  Snapshot.Collect.Make (Snapshot.Slot_value.Int) (Pram.Memory.Sim)
module Collect_spec6 =
  Snapshot.Array_spec.Make
    (Snapshot.Slot_value.Int)
    (struct
      let procs = 6
    end)
module Collect_check6 = Lincheck.Make (Collect_spec6)

let collect6_program record =
  let procs = 6 in
  let t = Collect_sim.create ~procs in
  fun pid ->
    let h = Collect_sim.attach t (Runtime.Ctx.make ~procs ~pid ()) in
    if pid < procs - 1 then
      ignore
        (record ~pid (`Update (pid, pid + 10)) (fun () ->
             Collect_sim.update h (pid + 10);
             `Unit))
    else
      ignore (record ~pid `Snapshot (fun () -> `View (Collect_sim.snapshot h)))

let coverage_rows ~bench ~procs (o : Pram.Explore.outcome) =
  let mk metric value =
    row ~bench ~procs ~backend:"sim" ~metric ~value:(float_of_int value)
      ~unit_:"schedules"
  in
  [
    mk "explored" o.coverage.Pram.Explore.cov_explored;
    mk "pruned" o.coverage.Pram.Explore.cov_pruned;
    mk "sampled" o.coverage.Pram.Explore.cov_sampled;
    mk "violations" (List.length o.failures);
  ]

let explore_rows ~quick =
  let samples = if quick then 400 else 1_200 in
  let seed = 2026 in
  let uniform = Pram.Explore.Way.Uniform { seed; count = samples } in
  let scan_dpor =
    (Scan_lin.search_check ~way:Pram.Explore.Way.systematic ~jobs:2 ~procs:2
       scan_program)
      .Pram.Explore.r_outcome
  in
  let counter_bounded =
    Pram.Explore.search
      ~way:(Pram.Explore.Way.Systematic Pram.Explore.Bounds.default)
      ~jobs:2 ~procs:3 (lost_update ~procs:3)
  in
  let lost_uniform =
    Pram.Explore.search ~way:uniform ~jobs:2 ~procs:6 (lost_update ~procs:6)
  in
  let racy_uniform =
    Pram.Explore.search ~way:uniform ~jobs:2 ~procs:6 (racy_max ~procs:6)
  in
  let collect_uniform =
    (Collect_check6.search_check ~way:uniform ~jobs:2 ~shrink:false ~procs:6
       collect6_program)
      .Pram.Explore.r_outcome
  in
  List.concat
    [
      coverage_rows ~bench:"explore_scan_dpor" ~procs:2 scan_dpor;
      coverage_rows ~bench:"explore_counter_bounded" ~procs:3 counter_bounded;
      coverage_rows ~bench:"explore_lost_update_uniform" ~procs:6 lost_uniform;
      coverage_rows ~bench:"explore_racy_max_uniform" ~procs:6 racy_uniform;
      coverage_rows ~bench:"explore_collect_uniform" ~procs:6 collect_uniform;
    ]

let sim_rows ~quick =
  let sweep = procs_sweep in
  List.concat
    [
      List.concat_map
        (fun procs ->
          List.concat_map
            (fun variant ->
              List.concat_map
                (fun contended -> sim_scan_rows ~variant ~procs ~contended)
                [ false; true ])
            scan_variants)
        sweep;
      List.concat_map
        (fun procs ->
          sim_universal_rows ~procs ~ops_per_proc:(if quick then 4 else 8))
        (if quick then [ 1; 2; 4 ] else sweep);
      (* the mode-comparison rows keep the full sweep even under --quick:
         the validator requires universal coverage at procs 1/2/4/8 *)
      List.concat_map (fun procs -> sim_universal_mode_rows ~quick ~procs)
        sweep;
      List.concat_map (fun procs -> sim_agreement_rows ~procs) sweep;
      (* the store counters keep the full sweep under --quick too: the
         validator requires store coverage at procs 1/2/4/8 *)
      List.concat_map (fun procs -> sim_store_rows ~quick ~procs) sweep;
      (* schedule-exploration coverage keeps its full stage list under
         --quick too (smaller sample budgets): the validator gates on
         stage presence and on each seeded stage finding its bug *)
      explore_rows ~quick;
    ]

(* --- measurement: native wall-clock ---------------------------------------- *)

module Counter_native = Universal.Direct.Counter (Pram.Native.Versioned)
module Scan_native = Snapshot.Scan.Make (Semilattice.Nat_max) (Pram.Native.Versioned)
module Arr_native =
  Snapshot.Snapshot_array.Make (Snapshot.Slot_value.Int) (Pram.Native.Versioned)

(* The wall-clock metric family: every native timing emits the
   raw elapsed span (wall_ns) next to the derived throughput rows, so
   downstream tooling never has to reconstruct one from the other. *)
let throughput_rows ~bench ~procs ~total_ops ~elapsed extra =
  let ops = float_of_int total_ops in
  row ~bench ~procs ~backend:"native" ~metric:"wall_ns"
    ~value:(elapsed *. 1e9) ~unit_:"ns"
  :: row ~bench ~procs ~backend:"native" ~metric:"ops_per_sec"
       ~value:(ops /. elapsed) ~unit_:"ops/s"
  :: row ~bench ~procs ~backend:"native" ~metric:"ns_per_op"
       ~value:(elapsed *. 1e9 /. ops) ~unit_:"ns"
  :: extra

let native_counter_rows ~quick ~procs =
  let ops_per_proc = if quick then 5_000 else 50_000 in
  let counter = Counter_native.create ~procs in
  let _, elapsed =
    timed (fun () ->
        Runtime.run_domains ~procs (fun pid ->
            let h =
              Counter_native.attach counter (Runtime.Ctx.make ~procs ~pid ())
            in
            for _ = 1 to ops_per_proc do
              Counter_native.inc h 1
            done))
  in
  let total_ops = procs * ops_per_proc in
  let final =
    Counter_native.read
      (Counter_native.attach counter (Runtime.Ctx.make ~procs ~pid:0 ()))
  in
  throughput_rows ~bench:"counter_inc" ~procs ~total_ops ~elapsed
    [
      row ~bench:"counter_inc" ~procs ~backend:"native"
        ~metric:"lost_updates"
        ~value:(float_of_int (total_ops - final))
        ~unit_:"ops";
    ]

module UC_native = Universal.Construction.Make (Spec.Counter_spec) (Pram.Native.Versioned)
module UG_native = Universal.Construction.Make (Spec.Gset_spec) (Pram.Native.Versioned)

(* Wall-clock of the generic universal construction on real domains
   (incremental mode, the default), one domain per process, every domain
   running the same commute-heavy script as the sim rows.  Spawn/join
   overhead is inside the timed span — the op counts are sized to
   dominate it. *)
let native_universal_counter_rows ~quick ~procs =
  let ops_per_proc = if quick then 120 else 600 in
  let t = UC_native.create ~procs () in
  let _, elapsed =
    timed (fun () ->
        Runtime.run_domains ~procs (fun pid ->
            let h = UC_native.attach t (Runtime.Ctx.make ~procs ~pid ()) in
            List.iter
              (fun op -> ignore (UC_native.execute h op))
              (bench_counter_script ~ops_per_proc pid)))
  in
  throughput_rows ~bench:"universal_counter" ~procs
    ~total_ops:(procs * ops_per_proc) ~elapsed []

(* Serialize a finished telemetry series as windowed rows: per window
   the op count, the end-of-window timestamp on the sampler's interval
   grid, the derived window throughput, latency quantiles when the
   window saw operations, and the non-zero counter deltas.  The shape
   the series-reconciliation gate checks. *)
let w_delta_prefix = "w_delta_"

let series_rows ~bench ~procs ~backend sampler =
  let interval = Telemetry.Sampler.interval sampler in
  List.concat_map
    (fun (w : Telemetry.Window.t) ->
      let mk metric value unit_ =
        wrow ~window:w.Telemetry.Window.index ~bench ~procs ~backend ~metric
          ~value ~unit_
      in
      List.concat
        [
          [
            mk "w_ops" (float_of_int w.Telemetry.Window.ops) "ops";
            mk "w_end_ns" (w.Telemetry.Window.t_end *. 1e9) "ns";
            mk "w_ops_per_sec"
              (float_of_int w.Telemetry.Window.ops /. interval)
              "ops/s";
          ];
          (match w.Telemetry.Window.latency with
          | None -> []
          | Some st ->
              [
                mk "w_latency_p50" (float_of_int st.Telemetry.Stats.p50) "ns";
                mk "w_latency_p99" (float_of_int st.Telemetry.Stats.p99) "ns";
              ]);
          List.filter_map
            (fun e ->
              let d =
                w.Telemetry.Window.deltas.(Telemetry.Event.index e)
              in
              if d = 0 then None
              else
                Some
                  (mk
                     (w_delta_prefix ^ Telemetry.Event.name e)
                     (float_of_int d) "events"))
            Telemetry.Event.all;
        ])
    (Telemetry.Sampler.windows sampler)

(* The one native store harness, for every native store stage and `wfa
   top`: [procs] domains drive keyed zipfian scripts, built before they
   spawn, through Workload.Traffic into a store with a shard per family
   of [counters]; the grid rides in the sink and [sampler] files every
   operation's latency.  Returns the run's seconds, the scripts' ops and
   the graph entries the handles published. *)
let drive_store ~counters ~sampler ~procs ~batching ~read_fraction ~seed ~loop
    ~ops_per_proc =
  let scripts =
    Array.init procs
      (Workload.keyed_counter_script ~seed ~keys:32 ~theta:0.9 ~read_fraction
         ~ops_per_proc)
  in
  let sink = Runtime.Sink.make ~telemetry:counters () in
  let t =
    Store_native.create ~shards:(Telemetry.Counters.families counters) ~procs
      ()
  in
  let flush_every =
    match batching with
    | Universal.Store.Batched n -> n
    | Universal.Store.Unbatched -> 64
  in
  let entries, elapsed =
    timed (fun () ->
        Runtime.run_domains ~sink ~procs (fun pid ->
            let h =
              Store_native.attach ~batching t
                (Runtime.Ctx.make ~sink ~procs ~pid ())
            in
            Workload.Traffic.drive ~sampler ~loop ~flush_every
              ~ops:scripts.(pid)
              ~submit:(fun key op -> Store_native.submit h ~key op)
              ~flush:(fun () -> ignore (Store_native.flush h))
              ();
            (Store_native.stats h).Store_native.entries))
  in
  ( elapsed,
    Array.fold_left (fun a s -> a + List.length s) 0 scripts,
    List.fold_left ( + ) 0 entries )

(* One native store stage: an 8-shard harness run whose sampler windows
   it and pools its latencies.  Returns the wall-clock family, the "ops"
   reconciliation total, entries, latency and the windowed series. *)
let native_store_stage ~bench ~procs ~batching ~read_fraction ~seed ~loop
    ~ops_per_proc ~interval extra =
  let counters = Telemetry.Counters.create ~families:8 ~procs () in
  let sampler = Telemetry.Sampler.create ~interval ~counters () in
  let elapsed, ops, entries =
    drive_store ~counters ~sampler ~procs ~batching ~read_fraction ~seed ~loop
      ~ops_per_proc
  in
  Telemetry.Sampler.finish sampler;
  let latency_rows =
    match Telemetry.Sampler.latency sampler with
    | None -> []
    | Some s ->
        [
          row ~bench ~procs ~backend:"native" ~metric:"latency_p99"
            ~value:(float_of_int s.Telemetry.Stats.p99) ~unit_:"ns";
          row ~bench ~procs ~backend:"native" ~metric:"latency_mean"
            ~value:s.Telemetry.Stats.mean ~unit_:"ns";
        ]
  in
  throughput_rows ~bench ~procs ~total_ops:ops ~elapsed
    (row ~bench ~procs ~backend:"native" ~metric:"ops"
       ~value:(float_of_int ops) ~unit_:"ops"
     :: row ~bench ~procs ~backend:"native" ~metric:"entries"
          ~value:(float_of_int entries) ~unit_:"entries"
     :: (latency_rows @ extra))
  @ series_rows ~bench ~procs ~backend:"native" sampler

(* Of [trials], each the rows of one run of a stage, the median run by
   ops_per_sec, whole — so its windowed series still reconciles with its
   own totals — followed by the quartile throughputs as ops_per_sec_p25
   and ops_per_sec_p75 rows. *)
let median_trial trials =
  let ops_per_sec rows =
    (List.find (fun r -> r.window = None && r.metric = "ops_per_sec") rows)
      .value
  in
  let sorted =
    Array.of_list
      (List.sort
         (fun a b -> Float.compare (ops_per_sec a) (ops_per_sec b))
         trials)
  in
  let n = Array.length sorted in
  let median = sorted.(n / 2) in
  let r0 = List.hd median in
  let quartile metric rows =
    row ~bench:r0.bench ~procs:r0.procs ~backend:r0.backend ~metric
      ~value:(ops_per_sec rows) ~unit_:"ops/s"
  in
  let plain, windowed = List.partition (fun r -> r.window = None) median in
  plain
  @ [
      quartile "ops_per_sec_p25" sorted.(n / 4);
      quartile "ops_per_sec_p75" sorted.(3 * n / 4);
    ]
  @ windowed

let store_trials = 5

(* The native store stage: every domain drives its keyed zipfian script
   through the Workload.Traffic front-end (closed loop, flush at the
   batch ceiling), so wall-clock throughput and per-op latency
   percentiles come out of the same run.  Batched vs unbatched on the
   same script is the amortization claim of DESIGN.md §12 in wall-clock
   form; the gates require batched >= unbatched at procs >= 4.  One
   sample of each fails that gate whenever the host slows down during
   the batched run, so each policy runs [store_trials] times,
   interleaved with the other's, and reports its median trial. *)
let native_store_rows ~quick ~procs =
  (* quick stays at several hundred ops per domain: shorter runs are
     dominated by domain spawn/flush jitter and the batched-vs-unbatched
     ordering the gates check becomes noise on small hosts *)
  let ops_per_proc = if quick then 500 else 1_000 in
  let stage batching =
    native_store_stage
      ~bench:(store_bench_name batching)
      ~procs ~batching ~read_fraction:0.0 ~seed:17 ~loop:Workload.Traffic.Closed
      ~ops_per_proc
      ~interval:0.005 []
  in
  let batched, unbatched =
    List.split
      (List.init store_trials (fun _ ->
           let b = stage (Universal.Store.Batched 64) in
           (b, stage Universal.Store.Unbatched)))
  in
  median_trial batched @ median_trial unbatched

(* The windowed stages the gates require by name, at procs 4 native:

   - an open-loop arrival-rate sweep: each of the 4 domains offers
     rate/4 op/s, so the stage's aggregate offered load is the
     advertised rate, and latency is charged from the scheduled arrival
     (coordinated-omission corrected);
   - the 50% read mix, so the read path shows in a windowed series
     (the other store stages run read_fraction 0.0). *)
let openloop_rates = [ 2_000.0; 5_000.0; 10_000.0 ]

let openloop_bench_name rate =
  Printf.sprintf "store_openloop_r%d" (int_of_float rate)

let readmix_bench = "store_batched_readmix"

let native_store_openloop_rows ~quick ~rate =
  let procs = 4 in
  let ops_per_proc = if quick then 100 else 250 in
  let per_proc_rate = rate /. float_of_int procs in
  native_store_stage
    ~bench:(openloop_bench_name rate)
    ~procs ~batching:(Universal.Store.Batched 64) ~read_fraction:0.0 ~seed:17
    ~loop:(Workload.Traffic.Open { rate = per_proc_rate })
    ~ops_per_proc ~interval:0.01
    [
      row ~bench:(openloop_bench_name rate) ~procs ~backend:"native"
        ~metric:"target_rate" ~value:rate ~unit_:"ops/s";
    ]

let native_store_readmix_rows ~quick =
  let procs = 4 in
  let ops_per_proc = if quick then 500 else 1_000 in
  native_store_stage ~bench:readmix_bench ~procs
    ~batching:(Universal.Store.Batched 64) ~read_fraction:0.5 ~seed:19
    ~loop:Workload.Traffic.Closed ~ops_per_proc ~interval:0.005 []

let windowed_store_rows ~quick =
  List.concat_map (fun rate -> native_store_openloop_rows ~quick ~rate)
    openloop_rates
  @ native_store_readmix_rows ~quick

let native_universal_gset_rows ~quick ~procs =
  let ops_per_proc = if quick then 100 else 400 in
  let t = UG_native.create ~procs () in
  let _, elapsed =
    timed (fun () ->
        Runtime.run_domains ~procs (fun pid ->
            let h = UG_native.attach t (Runtime.Ctx.make ~procs ~pid ()) in
            List.iter
              (fun op -> ignore (UG_native.execute h op))
              (bench_gset_script ~ops_per_proc pid)))
  in
  throughput_rows ~bench:"universal_gset" ~procs
    ~total_ops:(procs * ops_per_proc) ~elapsed []

(* Contended vs uncontended scan on real domains.  The step counts are
   identical by wait-freedom (the sim rows pin that down); what contention
   changes is the wall-clock cost of the same accesses — cache-line
   traffic on the shared grid — which single-pid benches cannot see. *)
let native_scan_variant_rows ~quick ~variant ~procs ~contended =
  let scans = if quick then 500 else 5_000 in
  let t = Scan_native.create ~variant ~procs in
  let body pid () =
    let h = Scan_native.attach t (Runtime.Ctx.make ~procs ~pid ()) in
    for i = 1 to scans do
      ignore (Scan_native.scan h i)
    done
  in
  let domains = if contended then procs else 1 in
  let _, elapsed =
    timed (fun () ->
        Runtime.run_domains ~procs:domains (fun pid -> body pid ()))
  in
  let bench =
    Printf.sprintf "%s_%s" (variant_name variant)
      (if contended then "contended" else "uncontended")
  in
  throughput_rows ~bench ~procs ~total_ops:(domains * scans) ~elapsed []

(* Register footprint of an [Optimized] scan object — the grid without
   its never-read last column — counted by a creation hook over the
   production registers rather than asserted from the formula. *)
let native_scan_footprint_rows ~procs =
  let created = ref 0 in
  let module Counted =
    Pram.Memory.Hooked
      (Pram.Native.Versioned)
      (struct
        let on_create ~reg_id:_ ~reg_name:_ = incr created
        let on_read ~reg_id:_ ~reg_name:_ = ()
        let on_write ~reg_id:_ ~reg_name:_ = ()
      end)
  in
  let module Scan_counted = Snapshot.Scan.Make (Semilattice.Nat_max) (Counted) in
  let t = Scan_counted.create ~variant:Snapshot.Scan.Optimized ~procs in
  let h = Scan_counted.attach t (Runtime.Ctx.make ~procs ~pid:0 ()) in
  ignore (Scan_counted.scan h 1);
  [
    row ~bench:"scan_grid" ~procs ~backend:"native" ~metric:"registers"
      ~value:(float_of_int !created) ~unit_:"registers";
  ]

let native_array_rows ~quick ~procs ~contended =
  let pairs = if quick then 500 else 5_000 in
  let t = Arr_native.create ~variant:Snapshot.Scan.Optimized ~procs in
  let domains = if contended then procs else 1 in
  let _, elapsed =
    timed (fun () ->
        Runtime.run_domains ~procs:domains (fun pid ->
            let h = Arr_native.attach t (Runtime.Ctx.make ~procs ~pid ()) in
            for i = 1 to pairs do
              Arr_native.update h i;
              ignore (Arr_native.snapshot h)
            done))
  in
  let bench =
    Printf.sprintf "snapshot_array_%s"
      (if contended then "contended" else "uncontended")
  in
  throughput_rows ~bench ~procs ~total_ops:(domains * pairs) ~elapsed []

let native_scan_rows ~quick =
  List.concat_map
    (fun procs ->
      List.concat
        [
          List.concat_map
            (fun variant ->
              List.concat_map
                (fun contended ->
                  native_scan_variant_rows ~quick ~variant ~procs ~contended)
                [ false; true ])
            scan_variants;
          native_array_rows ~quick ~procs ~contended:false;
          native_array_rows ~quick ~procs ~contended:true;
          native_scan_footprint_rows ~procs;
        ])
    procs_sweep

let native_rows ~quick =
  List.concat
    [
      List.concat_map (fun procs -> native_counter_rows ~quick ~procs)
        procs_sweep;
      List.concat_map
        (fun procs -> native_universal_counter_rows ~quick ~procs)
        procs_sweep;
      List.concat_map
        (fun procs -> native_universal_gset_rows ~quick ~procs)
        procs_sweep;
      List.concat_map (fun procs -> native_store_rows ~quick ~procs)
        procs_sweep;
      windowed_store_rows ~quick;
      native_scan_rows ~quick;
    ]

(* --- measurement: single-threaded direct timing (B1-B6) -------------------- *)

(* Mean ns per call of [f] over [iters] calls. *)
let time_direct ~iters f =
  let (), elapsed =
    timed (fun () ->
        for _ = 1 to iters do
          f ()
        done)
  in
  elapsed *. 1e9 /. float_of_int iters

module Scan_direct = Snapshot.Scan.Make (Semilattice.Nat_max) (Pram.Memory.Direct_v)
module Arr_direct =
  Snapshot.Snapshot_array.Make (Snapshot.Slot_value.Int) (Pram.Memory.Direct_v)
module Counter_direct = Universal.Direct.Counter (Pram.Memory.Direct_v)
module UC_direct = Universal.Construction.Make (Spec.Counter_spec) (Pram.Memory.Direct_v)
module AA_direct = Agreement.Approx_agreement.Make (Pram.Memory.Direct)

(* B1-B3 drive one object from pid 0 alone, so their names say
   uncontended; the contended counterparts are the native
   scan_*_contended / snapshot_array_contended stages. *)
let direct_rows ~quick =
  let procs = 4 in
  let window = 64 in
  let ctx0 = Runtime.Ctx.make ~procs ~pid:0 () in
  let ops = if quick then 10_000 else 100_000 in
  let scan_ns n =
    let h =
      Scan_direct.attach
        (Scan_direct.create ~variant:Snapshot.Scan.Optimized ~procs:n)
        (Runtime.Ctx.make ~procs:n ~pid:0 ())
    in
    time_direct ~iters:ops (fun () -> ignore (Scan_direct.scan h 1))
  in
  let scan4_ns = scan_ns 4 in
  let scan8_ns = scan_ns 8 in
  let array_ns =
    let h =
      Arr_direct.attach
        (Arr_direct.create ~variant:Snapshot.Scan.Optimized ~procs)
        ctx0
    in
    let i = ref 0 in
    time_direct ~iters:ops (fun () ->
        incr i;
        Arr_direct.update h !i;
        ignore (Arr_direct.snapshot h))
  in
  let counter_ns =
    let h = Counter_direct.attach (Counter_direct.create ~procs) ctx0 in
    time_direct ~iters:ops (fun () ->
        Counter_direct.inc h 1;
        ignore (Counter_direct.read h))
  in
  (* windowed universal counter in both construction modes: the same
     op stream, recreated every [window] ops so the history stays
     bounded; the incremental/Reference pair is the B4 before/after *)
  let uc_mode_ns mode =
    let uc = ref (UC_direct.attach ~mode (UC_direct.create ~procs ()) ctx0) in
    let k = ref 0 in
    time_direct
      ~iters:(if quick then 200 else 2_000)
      (fun () ->
        incr k;
        if !k mod window = 0 then
          uc := UC_direct.attach ~mode (UC_direct.create ~procs ()) ctx0;
        ignore (UC_direct.execute !uc (Spec.Counter_spec.Inc 1)))
  in
  let uc_ns = uc_mode_ns UC_direct.Incremental in
  let uc_ref_ns = uc_mode_ns UC_direct.Reference in
  let aa_ns =
    time_direct
      ~iters:(if quick then 100 else 1_000)
      (fun () ->
        let t = AA_direct.create ~procs ~epsilon:0.01 in
        let h = AA_direct.attach t ctx0 in
        AA_direct.input h 0.5;
        ignore (AA_direct.output h))
  in
  let nodes = 64 in
  let edges = List.init (nodes - 1) (fun i -> (i, i + 1)) in
  let lg_ns =
    time_direct
      ~iters:(if quick then 50 else 500)
      (fun () ->
        ignore
          (Universal.Lingraph.build ~nodes ~precedence_edges:edges
             ~dominates:(fun i j -> (i + j) mod 3 = 0)))
  in
  let mk bench procs value =
    row ~bench ~procs ~backend:"direct" ~metric:"ns_per_op" ~value ~unit_:"ns"
  in
  [
    mk "scan_opt_uncontended" 4 scan4_ns;
    mk "scan_opt_uncontended" 8 scan8_ns;
    mk "snapshot_array_uncontended" procs array_ns;
    mk "counter_inc_read" procs counter_ns;
    mk "universal_counter_inc" procs uc_ns;
    mk "universal_counter_inc_reference" procs uc_ref_ns;
    mk "approx_agreement_solo" procs aa_ns;
    mk "lingraph_build_k64" 1 lg_ns;
  ]

(* The measurement stages, in file order; the E1-E12 stages follow them
   in BENCH.json (Experiments.collect). *)
let collect ~quick =
  List.concat [ sim_rows ~quick; native_rows ~quick; direct_rows ~quick ]
