(* Tests for the repo's access counts and the statistics over them: the
   nearest-rank histogram (Telemetry.Histogram), the driver's per-pid
   read/write meter on the simulator, the journal as the one consumer of
   the access stream on every backend (driver observer for the
   simulator, Instrument wrapper for direct/native code), span brackets,
   and the Section 6.2 guard — Scan.cost_formula must equal counts
   observed through a counting memory backend for all four variants at
   procs = 1..8, and each variant's object must create exactly its own
   registers. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- histogram statistics -------------------------------------------------- *)

let test_histogram_stats () =
  let h = Telemetry.Histogram.create () in
  check_bool "empty has no stats" true (Telemetry.Histogram.stats h = None);
  (* 1..100 in scrambled order: exact quantiles are order-independent *)
  List.iter
    (fun v -> Telemetry.Histogram.add h v)
    (List.init 100 (fun i -> ((i * 37) mod 100) + 1));
  match Telemetry.Histogram.stats h with
  | None -> Alcotest.fail "stats expected"
  | Some s ->
      check_int "count" 100 s.Telemetry.Stats.count;
      check_int "min" 1 s.Telemetry.Stats.min;
      check_int "max" 100 s.Telemetry.Stats.max;
      check_bool "mean" true (Float.abs (s.Telemetry.Stats.mean -. 50.5) < 1e-9);
      check_int "p99 nearest-rank" 99 s.Telemetry.Stats.p99

let test_histogram_single () =
  let h = Telemetry.Histogram.create () in
  Telemetry.Histogram.add h 7;
  match Telemetry.Histogram.stats h with
  | None -> Alcotest.fail "stats expected"
  | Some s ->
      check_int "min=max=p99" 7 s.Telemetry.Stats.min;
      check_int "p99 of singleton" 7 s.Telemetry.Stats.p99

(* Pin down the documented nearest-rank convention on the degenerate
   sample sizes (telemetry.mli): no stats on empty, singleton stats all
   equal the one value, and for count < 100 the p99 rank rounds up to
   count, i.e. p99 = max. *)
let test_stats_edge_cases () =
  let h = Telemetry.Histogram.create () in
  check_bool "empty: no stats" true (Telemetry.Histogram.stats h = None);
  check_int "empty: count 0" 0 (Telemetry.Histogram.count h);
  Telemetry.Histogram.add h 42;
  (match Telemetry.Histogram.stats h with
  | None -> Alcotest.fail "singleton stats expected"
  | Some s ->
      check_int "singleton count" 1 s.Telemetry.Stats.count;
      check_int "singleton min" 42 s.Telemetry.Stats.min;
      check_int "singleton max" 42 s.Telemetry.Stats.max;
      check_int "singleton p99 (rank max 1 (ceil 0.99))" 42
        s.Telemetry.Stats.p99;
      check_bool "singleton mean exact" true (s.Telemetry.Stats.mean = 42.0));
  Telemetry.Histogram.add h 0;
  (match Telemetry.Histogram.stats h with
  | None -> Alcotest.fail "pair stats expected"
  | Some s ->
      check_int "n=2 p99 = max (ceil 1.98 = 2)" 42 s.Telemetry.Stats.p99;
      check_bool "n=2 mean" true (s.Telemetry.Stats.mean = 21.0));
  (* any count < 100: rank rounds up to count, so p99 = max *)
  let h99 = Telemetry.Histogram.create () in
  for v = 1 to 99 do
    Telemetry.Histogram.add h99 v
  done;
  match Telemetry.Histogram.stats h99 with
  | None -> Alcotest.fail "stats expected"
  | Some s -> check_int "n=99 p99 = max" 99 s.Telemetry.Stats.p99

(* --- the journal via the Instrument wrapper ---------------------------------- *)

(* Per-pid (reads, writes) of the Access events in a journal. *)
let journal_counts j ~procs =
  let reads = Array.make procs 0 and writes = Array.make procs 0 in
  List.iter
    (fun e ->
      match e.Tracing.ev with
      | Tracing.Access { kind = Pram.Trace.Read; _ } ->
          reads.(e.Tracing.pid) <- reads.(e.Tracing.pid) + 1
      | Tracing.Access { kind = Pram.Trace.Write; _ } ->
          writes.(e.Tracing.pid) <- writes.(e.Tracing.pid) + 1
      | _ -> ())
    (Tracing.Journal.events j);
  Array.init procs (fun pid -> (reads.(pid), writes.(pid)))

let test_instrument_direct () =
  let journal = Tracing.Journal.create ~procs:2 () in
  let module M =
    Runtime.Instrument
      (Pram.Memory.Direct_v)
      (struct
        let sink = Runtime.Sink.make ~journal ()
      end)
  in
  let a = M.create ~name:"a" 0 in
  let b = M.create ~name:"b" 0 in
  Runtime.set_pid 0;
  M.write a 1;
  ignore (M.read a);
  ignore (M.read b);
  Runtime.set_pid 1;
  M.write b 2;
  M.write b 3;
  Runtime.set_pid 0;
  let counts = journal_counts journal ~procs:2 in
  check_int "pid0 reads" 2 (fst counts.(0));
  check_int "pid0 writes" 1 (snd counts.(0));
  check_int "pid1 reads" 0 (fst counts.(1));
  check_int "pid1 writes" 2 (snd counts.(1));
  let on_reg name kind =
    List.length
      (List.filter
         (fun e ->
           match e.Tracing.ev with
           | Tracing.Access a -> a.reg_name = name && a.kind = kind
           | _ -> false)
         (Tracing.Journal.events journal))
  in
  check_int "a reads" 1 (on_reg "a" Pram.Trace.Read);
  check_int "a writes" 1 (on_reg "a" Pram.Trace.Write);
  check_int "b reads" 1 (on_reg "b" Pram.Trace.Read);
  check_int "b writes" 2 (on_reg "b" Pram.Trace.Write)

let test_instrument_native_domains () =
  (* [run_domains] sets each domain's pid, so the journal attributes
     every access exactly under real parallelism.  Each pid reads its
     neighbour's register and writes its own: a seqlock register has one
     writer. *)
  let procs = 4 in
  let reads_per_pid = 500 in
  let journal = Tracing.Journal.create ~procs () in
  let module M =
    Runtime.Instrument
      (Pram.Native.Versioned)
      (struct
        let sink = Runtime.Sink.make ~journal ()
      end)
  in
  let regs = Array.init procs (fun _ -> M.create 0) in
  let _ =
    Runtime.run_domains ~procs (fun pid ->
        for _ = 1 to reads_per_pid do
          ignore (M.read regs.((pid + 1) mod procs))
        done;
        M.write regs.(pid) pid)
  in
  let counts = journal_counts journal ~procs in
  for pid = 0 to procs - 1 do
    check_int (Printf.sprintf "pid %d reads" pid) reads_per_pid
      (fst counts.(pid));
    check_int (Printf.sprintf "pid %d writes" pid) 1 (snd counts.(pid))
  done;
  check_int "total reads" (procs * reads_per_pid)
    (Array.fold_left (fun acc (r, _) -> acc + r) 0 counts)

(* --- the driver's meter and its observer feed ------------------------------ *)

let test_observer_matches_driver_steps () =
  let procs = 3 in
  let journal = Tracing.Journal.create ~procs () in
  let program () =
    let regs = Array.init procs (fun _ -> Pram.Memory.Sim.create 0) in
    fun pid ->
      for i = 1 to 5 do
        Pram.Memory.Sim.write regs.(pid) i;
        ignore (Pram.Memory.Sim.read regs.((pid + 1) mod procs))
      done
  in
  let d =
    Pram.Driver.create ~observer:(Tracing.Journal.observer journal) ~procs
      program
  in
  Pram.Scheduler.run (Pram.Scheduler.round_robin ()) d;
  let counts = journal_counts journal ~procs in
  for pid = 0 to procs - 1 do
    let r, w = counts.(pid) in
    check_int
      (Printf.sprintf "pid %d accesses = driver steps" pid)
      (Pram.Driver.steps d pid) (r + w);
    check_int (Printf.sprintf "pid %d reads" pid) 5 r;
    check_int (Printf.sprintf "pid %d writes" pid) 5 w;
    check_int (Printf.sprintf "pid %d driver reads" pid) r
      (Pram.Driver.reads d pid);
    check_int (Printf.sprintf "pid %d driver writes" pid) w
      (Pram.Driver.writes d pid)
  done

let test_spans_under_interleaving () =
  (* Spans wrap operations inside the process body; each pid's accesses
     between its own Invoke and Response stay exact even though the
     scheduler interleaves everything. *)
  let procs = 3 in
  let ops = 4 in
  let journal = Tracing.Journal.create ~procs () in
  let sink = Runtime.Sink.make ~journal () in
  let program () =
    let regs = Array.init procs (fun _ -> Pram.Memory.Sim.create 0) in
    fun pid ->
      let ctx = Runtime.Ctx.make ~sink ~procs ~pid () in
      for _ = 1 to ops do
        Runtime.Ctx.span ctx ~op:"rmw" (fun () ->
            let v = Pram.Memory.Sim.read regs.(pid) in
            Pram.Memory.Sim.write regs.(pid) (v + 1))
      done
  in
  let d =
    Pram.Driver.create ?observer:(Runtime.Sink.observer sink) ~procs program
  in
  Pram.Scheduler.run (Pram.Scheduler.random ~seed:3 ()) d;
  (* per pid: the access count of the open span, if any *)
  let open_span = Array.make procs None in
  let spans = ref [] in
  List.iter
    (fun e ->
      let p = e.Tracing.pid in
      match (e.Tracing.ev, open_span.(p)) with
      | Tracing.Invoke "rmw", None -> open_span.(p) <- Some 0
      | Tracing.Access _, Some n -> open_span.(p) <- Some (n + 1)
      | Tracing.Response "rmw", Some n ->
          spans := n :: !spans;
          open_span.(p) <- None
      | _ -> Alcotest.fail "access or bracket outside a span")
    (Tracing.Journal.events journal);
  check_int "span count" (procs * ops) (List.length !spans);
  check_int "every op is read+write" 2 (List.fold_left min max_int !spans);
  check_int "every op is read+write (max)" 2 (List.fold_left max 0 !spans)

(* --- the Section 6.2 guard ------------------------------------------------- *)

(* cost_formula vs counts observed through a counting backend, all four
   variants, procs = 1..8.  Three independent counting paths must agree
   with the formula: the journal fed by the Instrument wrapper over
   Direct_v and over the native seqlock registers (on one domain), and
   the driver under Sim.  The footprint is counted by a creation hook
   stacked on the Instrument wrapper. *)
let scan_cost_via_instrument (module Mem : Pram.Memory.VERSIONED) ~procs
    ~variant =
  let journal = Tracing.Journal.create ~procs () in
  let created = ref 0 in
  let module M =
    Pram.Memory.Hooked
      (Runtime.Instrument
         (Mem)
         (struct
           let sink = Runtime.Sink.make ~journal ()
         end))
      (struct
        let on_create ~reg_id:_ ~reg_name:_ = incr created
        let on_read ~reg_id:_ ~reg_name:_ = ()
        let on_write ~reg_id:_ ~reg_name:_ = ()
      end)
  in
  let module Scan = Snapshot.Scan.Make (Semilattice.Nat_max) (M) in
  let t = Scan.create ~variant ~procs in
  Runtime.set_pid 0;
  let h = Scan.attach t (Runtime.Ctx.make ~procs ~pid:0 ()) in
  ignore (Scan.scan h 1);
  let r, w = (journal_counts journal ~procs).(0) in
  (r, w, !created)

let scan_cost_via_driver ~procs ~variant =
  let module Scan = Snapshot.Scan.Make (Semilattice.Nat_max) (Pram.Memory.Sim_v) in
  let program () =
    let t = Scan.create ~variant ~procs in
    fun pid ->
      let h = Scan.attach t (Runtime.Ctx.make ~procs ~pid ()) in
      ignore (Scan.scan h (pid + 1))
  in
  let d = Pram.Driver.create ~procs program in
  (* all processes run (contention): per-pid counts must be oblivious *)
  Pram.Scheduler.run (Pram.Scheduler.round_robin ()) d;
  (Pram.Driver.reads d 0, Pram.Driver.writes d 0)

(* Each variant's register footprint, in closed form: only the registers
   its protocol can access.  One process never collects, so [Adaptive]
   and [Lattice] then hold column 0 alone. *)
let footprint ~procs variant =
  let levels = Snapshot.Classifier_tree.levels ~procs in
  match variant with
  | Snapshot.Scan.Plain -> procs * (procs + 2) (* the full grid *)
  | Snapshot.Scan.Optimized -> procs * (procs + 1) (* no column n+1 *)
  | Snapshot.Scan.Adaptive when procs = 1 -> 1
  | Snapshot.Scan.Adaptive -> (procs * (procs + 1)) + procs (* + esc flags *)
  | Snapshot.Scan.Lattice when procs = 1 -> 1
  | Snapshot.Scan.Lattice ->
      (* column 0, the generation registers, and [lattice_pool] trees of
         [2^levels - 1] vertices with [procs] slots each *)
      (2 * procs)
      + (Snapshot.Scan.lattice_pool * ((1 lsl levels) - 1) * procs)

let test_cost_formula_matches_counting_backend () =
  List.iter
    (fun variant ->
      for procs = 1 to 8 do
        let fr, fw = Snapshot.Scan.cost_formula ~procs variant in
        let ir, iw, regs =
          scan_cost_via_instrument (module Pram.Memory.Direct_v) ~procs
            ~variant
        in
        let nr, nw, nregs =
          scan_cost_via_instrument (module Pram.Native.Versioned) ~procs
            ~variant
        in
        let label what =
          Printf.sprintf "%s procs=%d %s"
            (match variant with
            | Snapshot.Scan.Plain -> "plain"
            | Snapshot.Scan.Optimized -> "optimized"
            | Snapshot.Scan.Adaptive -> "adaptive"
            | Snapshot.Scan.Lattice -> "lattice")
            procs what
        in
        check_int (label "reads (instrument)") fr ir;
        check_int (label "writes (instrument)") fw iw;
        check_int (label "registers") (footprint ~procs variant) regs;
        check_int (label "reads (instrument, native)") fr nr;
        check_int (label "writes (instrument, native)") fw nw;
        check_int (label "registers (native)") (footprint ~procs variant) nregs;
        (* round-robin lockstep fires every publish before any collect,
           so even the contended Adaptive run stays on the exact-count
           fast path (random schedules may escalate; see
           test_sink_equals_legacy_paths) *)
        let dr, dw = scan_cost_via_driver ~procs ~variant in
        check_int (label "reads (driver, contended)") fr dr;
        check_int (label "writes (driver, contended)") fw dw
      done)
    [
      Snapshot.Scan.Plain;
      Snapshot.Scan.Optimized;
      Snapshot.Scan.Adaptive;
      Snapshot.Scan.Lattice;
    ]

(* --- one access stream, three meters ---------------------------------------
   The journal fed through [Runtime.Instrument] must report exactly the
   per-pid read/write counts of a hand-rolled [Pram.Memory.Hooked]
   wrapper and of the driver's own meter, on the same seeded scan
   workload, procs 1..8.  Scan's access count is schedule-oblivious, so
   the contended simulator run must agree with the two sequential
   direct runs, per pid. *)

let scan_workload_via_sink ~procs ~variant =
  let journal = Tracing.Journal.create ~procs () in
  let module M =
    Runtime.Instrument
      (Pram.Memory.Direct_v)
      (struct
        let sink = Runtime.Sink.make ~journal ()
      end)
  in
  let module Scan = Snapshot.Scan.Make (Semilattice.Nat_max) (M) in
  let t = Scan.create ~variant ~procs in
  for pid = 0 to procs - 1 do
    Runtime.set_pid pid;
    let h = Scan.attach t (Runtime.Ctx.make ~procs ~pid ()) in
    ignore (Scan.scan h (pid + 1))
  done;
  Runtime.set_pid 0;
  journal_counts journal ~procs

let scan_workload_via_hooked ~procs ~variant =
  (* the pre-Ctx idiom: raw hooks over a mutable pid cell *)
  let reads = Array.make procs 0 and writes = Array.make procs 0 in
  let cur = ref 0 in
  let module M =
    Pram.Memory.Hooked
      (Pram.Memory.Direct_v)
      (struct
        let on_create ~reg_id:_ ~reg_name:_ = ()
        let on_read ~reg_id:_ ~reg_name:_ = reads.(!cur) <- reads.(!cur) + 1

        let on_write ~reg_id:_ ~reg_name:_ =
          writes.(!cur) <- writes.(!cur) + 1
      end)
  in
  let module Scan = Snapshot.Scan.Make (Semilattice.Nat_max) (M) in
  let t = Scan.create ~variant ~procs in
  for pid = 0 to procs - 1 do
    cur := pid;
    let h = Scan.attach t (Runtime.Ctx.make ~procs ~pid ()) in
    ignore (Scan.scan h (pid + 1))
  done;
  Array.init procs (fun pid -> (reads.(pid), writes.(pid)))

let scan_workload_via_driver ~procs ~variant ~seed =
  let module Scan = Snapshot.Scan.Make (Semilattice.Nat_max) (Pram.Memory.Sim_v) in
  let program () =
    let t = Scan.create ~variant ~procs in
    fun pid ->
      let h = Scan.attach t (Runtime.Ctx.make ~procs ~pid ()) in
      ignore (Scan.scan h (pid + 1))
  in
  let d = Pram.Driver.create ~procs program in
  Pram.Scheduler.run (Pram.Scheduler.random ~seed ()) d;
  Array.init procs (fun pid ->
      (Pram.Driver.reads d pid, Pram.Driver.writes d pid))

let test_sink_equals_legacy_paths () =
  List.iter
    (fun variant ->
      let vname =
        match variant with
        | Snapshot.Scan.Plain -> "plain"
        | Snapshot.Scan.Optimized -> "optimized"
        | Snapshot.Scan.Adaptive -> "adaptive"
        | Snapshot.Scan.Lattice -> "lattice"
      in
      for procs = 1 to 8 do
        let sink = scan_workload_via_sink ~procs ~variant in
        let hooked = scan_workload_via_hooked ~procs ~variant in
        let driver = scan_workload_via_driver ~procs ~variant ~seed:(41 + procs) in
        for pid = 0 to procs - 1 do
          let label path what =
            Printf.sprintf "%s procs=%d pid=%d %s (%s)" vname procs pid what
              path
          in
          let sr, sw = sink.(pid) in
          let hr, hw = hooked.(pid) in
          let dr, dw = driver.(pid) in
          check_int (label "hooked" "reads") sr hr;
          check_int (label "hooked" "writes") sw hw;
          check_int (label "driver" "reads") sr dr;
          check_int (label "driver" "writes") sw dw
        done
      done)
    (* Adaptive is excluded: random schedules may escalate, making its
       per-pid counts schedule-dependent.  Lattice is included — its
       counts are oblivious for one scan per process (all scans land in
       generation 1, so the fence never retries). *)
    [ Snapshot.Scan.Plain; Snapshot.Scan.Optimized; Snapshot.Scan.Lattice ]

(* --- the adaptive scan's contention event, observed end-to-end ------------- *)

(* Force exactly one escalation under the simulator: the reader stores
   the writer's column-0 epoch during its versioned collect, the writer
   publishes (moving that epoch), and the reader's revalidation must
   escalate.  [retries:1] pins the pre-retry behavior — with the default
   bounded retry the second collect would validate (the writer has
   finished) and no escalation would fire.  The event reaches the
   context's telemetry counters and, from there, the OpenMetrics
   exposition under its registered name — the same surface
   `wfa_cli top` renders — and is journaled exactly once, under the
   same name. *)
let test_scan_escalation_reaches_exporters () =
  let c = Telemetry.Counters.create ~procs:2 () in
  let journal = Tracing.Journal.create ~procs:2 () in
  let module A = Snapshot.Scan.Make (Semilattice.Nat_max) (Pram.Memory.Sim_v) in
  let program () =
    let t = A.create ~variant:Snapshot.Scan.Adaptive ~procs:2 in
    fun pid ->
      let sink = Runtime.Sink.make ~telemetry:c ~journal () in
      let h = A.attach ~retries:1 t (Runtime.Ctx.make ~sink ~procs:2 ~pid ()) in
      if pid = 0 then begin
        A.write_l h 7;
        0
      end
      else A.read_max h
  in
  let d = Pram.Driver.create ~procs:2 program in
  (* reader: escalation-flag pre-read, then the versioned collect of the
     writer's column (recording epoch 0) *)
  Pram.Driver.step d 1;
  Pram.Driver.step d 1;
  (* writer publishes: the column-0 epoch moves to 1 *)
  check_bool "writer finishes" true (Pram.Driver.run_solo d 0);
  (* reader's epoch revalidation sees the moved epoch and escalates *)
  check_bool "reader finishes" true (Pram.Driver.run_solo d 1);
  check_int "reader returns the published value" 7
    (match Pram.Driver.result d 1 with Some v -> v | None -> min_int);
  check_int "exactly one escalation counted" 1
    (Telemetry.Counters.total c Telemetry.Event.Scan_escalation);
  check_int "exactly one scan_escalation annotation" 1
    (List.length
       (List.filter
          (fun e -> e.Tracing.ev = Tracing.Annotate "scan_escalation")
          (Tracing.Journal.events journal)));
  match Telemetry.Openmetrics.parse (Telemetry.Openmetrics.render c) with
  | Error e -> Alcotest.failf "openmetrics rejected its own render: %s" e
  | Ok samples ->
      let value name =
        List.find_map
          (fun s ->
            if
              s.Telemetry.Openmetrics.s_name = "wfa_event_total"
              && List.mem ("event", name) s.Telemetry.Openmetrics.s_labels
            then Some s.Telemetry.Openmetrics.s_value
            else None)
          samples
      in
      check_bool "scan_escalation exported with the count" true
        (value "scan_escalation" = Some 1.0);
      check_bool "seqlock_retry exported (zero in the simulator)" true
        (value "seqlock_retry" = Some 0.0)

(* --- bench JSON round-trip -------------------------------------------------- *)

(* the schedule-exploration coverage family the PR 6 validator requires:
   all five stages, each with the full four-metric family, the clean
   stage clean, the buggy stages finding their bug, random stages with
   sampled = explored > 0 and systematic stages with sampled = 0 *)
let explore_stage_rows ~bench ~procs ~explored ~pruned ~sampled ~violations =
  List.map
    (fun (metric, value) ->
      Experiments.Bench_json.row ~bench ~procs ~backend:"sim" ~metric ~value
        ~unit_:"schedules")
    [
      ("explored", explored);
      ("pruned", pruned);
      ("sampled", sampled);
      ("violations", violations);
    ]

let explore_rows =
  List.concat
    [
      explore_stage_rows ~bench:"explore_scan_dpor" ~procs:2 ~explored:108.0
        ~pruned:38.0 ~sampled:0.0 ~violations:0.0;
      explore_stage_rows ~bench:"explore_counter_bounded" ~procs:3
        ~explored:36.0 ~pruned:0.0 ~sampled:0.0 ~violations:30.0;
      explore_stage_rows ~bench:"explore_lost_update_uniform" ~procs:6
        ~explored:400.0 ~pruned:0.0 ~sampled:400.0 ~violations:400.0;
      explore_stage_rows ~bench:"explore_racy_max_uniform" ~procs:6
        ~explored:400.0 ~pruned:0.0 ~sampled:400.0 ~violations:234.0;
      explore_stage_rows ~bench:"explore_collect_uniform" ~procs:6
        ~explored:400.0 ~pruned:0.0 ~sampled:400.0 ~violations:110.0;
    ]

(* the store family the PR 7 validator requires: native wall-clock +
   throughput and exact sim ops/entries counters at the full sweep for
   both batching policies, with batched >= unbatched throughput at
   procs >= 4 and entries <= ops *)
let store_stage_rows ~bench ~ops_per_sec ~entries =
  List.concat_map
    (fun procs ->
      [
        Experiments.Bench_json.row ~bench ~procs ~backend:"native"
          ~metric:"wall_ns" ~value:2e7 ~unit_:"ns";
        Experiments.Bench_json.row ~bench ~procs ~backend:"native"
          ~metric:"ops_per_sec" ~value:ops_per_sec ~unit_:"ops/s";
        Experiments.Bench_json.row ~bench ~procs ~backend:"sim" ~metric:"ops"
          ~value:96.0 ~unit_:"ops";
        Experiments.Bench_json.row ~bench ~procs ~backend:"sim"
          ~metric:"entries" ~value:entries ~unit_:"entries";
      ])
    [ 1; 2; 4; 8 ]

let store_rows =
  store_stage_rows ~bench:"store_batched" ~ops_per_sec:4e5 ~entries:24.0
  @ store_stage_rows ~bench:"store_unbatched" ~ops_per_sec:2e5 ~entries:96.0

(* the windowed-store family the PR 8 validator requires: each open-loop
   sweep stage and the read-mix stage at procs 4 native, with a windowed
   w_ops/w_end_ns series whose per-window ops reconcile against the
   stage's "ops" total, plus a target_rate row for open-loop stages *)
let windowed_stage_rows ~bench ~target_rate =
  let row = Experiments.Bench_json.row ~bench ~procs:4 ~backend:"native" in
  let wrow ~window =
    Experiments.Bench_json.wrow ~window ~bench ~procs:4 ~backend:"native"
  in
  [
    row ~metric:"wall_ns" ~value:2e7 ~unit_:"ns";
    row ~metric:"ops_per_sec" ~value:5e4 ~unit_:"ops/s";
    row ~metric:"ops" ~value:400.0 ~unit_:"ops";
    wrow ~window:0 ~metric:"w_ops" ~value:150.0 ~unit_:"ops";
    wrow ~window:1 ~metric:"w_ops" ~value:250.0 ~unit_:"ops";
    wrow ~window:0 ~metric:"w_end_ns" ~value:1e7 ~unit_:"ns";
    wrow ~window:1 ~metric:"w_end_ns" ~value:2e7 ~unit_:"ns";
    wrow ~window:0 ~metric:"w_ops_per_sec" ~value:1.5e4 ~unit_:"ops/s";
    wrow ~window:0 ~metric:"w_latency_p99" ~value:120000.0 ~unit_:"ns";
    wrow ~window:1 ~metric:"w_delta_shard_queue_depth" ~value:250.0
      ~unit_:"events";
  ]
  @
  match target_rate with
  | None -> []
  | Some rate -> [ row ~metric:"target_rate" ~value:rate ~unit_:"ops/s" ]

let windowed_rows =
  List.concat
    [
      windowed_stage_rows ~bench:"store_openloop_r2000"
        ~target_rate:(Some 2000.0);
      windowed_stage_rows ~bench:"store_openloop_r5000"
        ~target_rate:(Some 5000.0);
      windowed_stage_rows ~bench:"store_openloop_r10000"
        ~target_rate:(Some 10000.0);
      windowed_stage_rows ~bench:"store_batched_readmix" ~target_rate:None;
    ]

(* the paper-claim rows the E1-E12 coverage gates require at the quick
   sweeps, each consistent with its claim: steps within their bounds,
   floor = k, forced steps rising, exact scan formulas, the double
   collect starving, the naive collect caught, DPOR under naive *)
let paper_rows =
  let rows ?(backend = "sim") ~benches ~procs metrics value =
    List.concat_map
      (fun bench ->
        List.concat_map
          (fun p ->
            List.map
              (fun metric ->
                Experiments.Bench_json.row ~bench ~procs:p ~backend ~metric
                  ~value:(value bench p metric) ~unit_:"accesses")
              metrics)
          procs)
      benches
  in
  let formula variant _ procs metric =
    let reads, writes = Snapshot.Scan.cost_formula ~procs variant in
    float_of_int (if metric = "reads" then reads else writes)
  in
  let indexed name = List.map (fun k -> Printf.sprintf "%s%d" name k) in
  (* the one-digit sweep level that ends a bench name *)
  let level bench =
    float_of_int (Char.code bench.[String.length bench - 1] - Char.code '0')
  in
  let solo_procs = [ 2; 3; 4; 6; 8; 10 ] in
  List.concat
    [
      rows
        ~benches:(indexed "agreement_r" [ 10; 100; 1000; 10000 ])
        ~procs:[ 2; 3; 4; 6; 8 ] [ "steps_max"; "step_bound" ]
        (fun _ _ m -> if m = "steps_max" then 10.0 else 100.0);
      rows
        ~benches:(indexed "theorem7_k" [ 1; 2; 3; 4; 5 ])
        ~procs:[ 2 ] [ "floor"; "forced"; "step_bound"; "violations" ]
        (fun b _ m ->
          match m with
          | "floor" -> level b
          | "forced" -> 10.0 *. level b
          | "step_bound" -> 100.0
          | _ -> 0.0);
      rows
        ~benches:(indexed "theorem8_d1e" [ 1; 2; 3; 4 ])
        ~procs:[ 2 ] [ "floor"; "forced"; "step_bound" ]
        (fun b _ m -> if m = "forced" then 10.0 *. level b else 1.0);
      List.concat_map
        (fun (prefix, variant) ->
          rows
            ~benches:[ prefix ^ "_uncontended" ]
            ~procs:[ 1; 2; 4; 8 ] [ "reads"; "writes" ] (formula variant))
        [
          ("scan_plain", Snapshot.Scan.Plain);
          ("scan_opt", Snapshot.Scan.Optimized);
          ("scan_adaptive", Snapshot.Scan.Adaptive);
          ("scan_lattice", Snapshot.Scan.Lattice);
        ];
      rows ~benches:[ "universal_counter_solo" ] ~procs:solo_procs
        [ "reads"; "writes" ] (formula Snapshot.Scan.Adaptive);
      rows ~benches:[ "direct_counter_solo"; "lattice_agreement_scan" ]
        ~procs:solo_procs [ "reads"; "writes" ]
        (formula Snapshot.Scan.Optimized);
      rows ~benches:[ "lattice_agreement_classifier" ] ~procs:[ 2; 4; 8 ]
        [ "reads"; "writes" ] (fun _ _ _ -> 1.0);
      rows
        ~benches:
          [
            "snapshot_scan"; "snapshot_afek"; "snapshot_double_collect";
            "snapshot_naive_collect";
          ]
        ~procs:[ 4 ] [ "quiet_steps"; "contended_steps" ]
        (fun b _ _ -> if b = "snapshot_double_collect" then 10000.0 else 9.0);
      rows
        ~benches:
          [
            "snapshot_scan"; "snapshot_afek"; "snapshot_double_collect";
            "snapshot_naive_collect";
          ]
        ~procs:[ 3 ] [ "violations" ]
        (fun b _ _ -> if b = "snapshot_naive_collect" then 5.0 else 0.0);
      rows ~benches:[ "greedy_k2"; "greedy_k3" ] ~procs:[ 2; 3 ] [ "forced" ]
        (fun b p _ -> float_of_int (10 * p) +. level b);
      rows ~backend:"direct"
        ~benches:
          (List.concat_map
             (fun ops ->
               indexed "universal_counter_h" [ ops ]
               @ indexed "direct_counter_h" [ ops ])
             [ 25; 50 ])
        ~procs:[ 4 ] [ "ns_per_op" ] (fun _ _ _ -> 2000.0);
      rows ~benches:(indexed "iis_k" [ 1; 2; 3 ]) ~procs:[ 2; 3 ]
        [ "layers"; "worst_gap" ]
        (fun _ _ m -> if m = "layers" then 1.0 else 0.0);
      rows
        ~benches:
          (List.map
             (( ^ ) "dpor_vs_naive_")
             [ "lost_update"; "scan"; "counter" ])
        ~procs:[ 2 ]
        [ "naive_explored"; "dpor_explored"; "naive_violations"; "dpor_violations" ]
        (fun b _ m ->
          match m with
          | "naive_explored" -> 10.0
          | "dpor_explored" -> 5.0
          | _ -> if b = "dpor_vs_naive_lost_update" then 2.0 else 0.0);
    ]

let test_bench_json_roundtrip () =
  (* the universal wall-clock family the PR 5 validator requires at the
     full sweep, for both universal benches *)
  let universal_rows =
    List.concat_map
      (fun bench ->
        List.concat_map
          (fun procs ->
            [
              Experiments.Bench_json.row ~bench ~procs ~backend:"native"
                ~metric:"wall_ns" ~value:1e7 ~unit_:"ns";
              Experiments.Bench_json.row ~bench ~procs ~backend:"native"
                ~metric:"ops_per_sec" ~value:1e5 ~unit_:"ops/s";
            ])
          [ 1; 2; 4; 8 ])
      [ "universal_counter"; "universal_gset" ]
  in
  (* the native adaptive and lattice scan stages must reach procs 8 *)
  let native_scan_rows =
    List.map
      (fun bench ->
        Experiments.Bench_json.row ~bench ~procs:8 ~backend:"native"
          ~metric:"wall_ns" ~value:5e6 ~unit_:"ns")
      [
        "scan_adaptive_uncontended";
        "scan_adaptive_contended";
        "scan_lattice_uncontended";
        "scan_lattice_contended";
      ]
  in
  let rows =
    [
      Experiments.Bench_json.row ~bench:"scan_plain_uncontended" ~procs:2
        ~backend:"sim" ~metric:"reads" ~value:7.0 ~unit_:"accesses";
      Experiments.Bench_json.row ~bench:"counter_inc" ~procs:1
        ~backend:"native" ~metric:"ops_per_sec" ~value:1.5e6 ~unit_:"ops/s";
      Experiments.Bench_json.row ~bench:"counter_inc" ~procs:2
        ~backend:"native" ~metric:"ops_per_sec" ~value:2.5e6 ~unit_:"ops/s";
      Experiments.Bench_json.row ~bench:"counter_inc" ~procs:4
        ~backend:"native" ~metric:"ops_per_sec" ~value:3e6 ~unit_:"ops/s";
      Experiments.Bench_json.row ~bench:"counter_inc" ~procs:8
        ~backend:"native" ~metric:"ops_per_sec" ~value:4e6 ~unit_:"ops/s";
    ]
    @ universal_rows @ native_scan_rows @ explore_rows @ store_rows
    @ windowed_rows @ paper_rows
  in
  (match
     Experiments.Bench_gates.validate_string
       (Experiments.Bench_json.to_json rows)
   with
  | Ok n -> check_int "row count survives round-trip" (List.length rows) n
  | Error errs -> Alcotest.fail (String.concat "; " errs));
  (* a sim scan row contradicting the formula must be rejected *)
  let bad =
    Experiments.Bench_json.row ~bench:"scan_plain_uncontended" ~procs:2
      ~backend:"sim" ~metric:"reads" ~value:6.0 ~unit_:"accesses"
  in
  (match
     Experiments.Bench_gates.validate_string
       (Experiments.Bench_json.to_json (bad :: List.tl rows))
   with
  | Ok _ -> Alcotest.fail "formula violation must be rejected"
  | Error _ -> ());
  (* native scan_grid rows must hold the Optimized footprint n(n+1): a
     row from an object that also carried the other variants' registers
     is stale *)
  (match
     Experiments.Bench_gates.validate_string
       (Experiments.Bench_json.to_json
          (Experiments.Bench_json.row ~bench:"scan_grid" ~procs:4
             ~backend:"native" ~metric:"registers" ~value:80.0
             ~unit_:"registers"
          :: rows))
   with
  | Ok _ -> Alcotest.fail "stale scan_grid footprint accepted"
  | Error _ -> ());
  (match
     Experiments.Bench_gates.validate_string
       (Experiments.Bench_json.to_json
          (Experiments.Bench_json.row ~bench:"scan_grid" ~procs:4
             ~backend:"native" ~metric:"registers" ~value:20.0
             ~unit_:"registers"
          :: rows))
   with
  | Ok _ -> ()
  | Error errs -> Alcotest.fail (String.concat "; " errs));
  (* wall-clock rows are schema-checked: wrong unit or a non-positive
     span must be rejected (but no magnitude thresholds) *)
  let wrong_unit =
    Experiments.Bench_json.row ~bench:"universal_counter" ~procs:1
      ~backend:"native" ~metric:"wall_ns" ~value:1e7 ~unit_:"ms"
  in
  (match
     Experiments.Bench_gates.validate_string
       (Experiments.Bench_json.to_json (wrong_unit :: rows))
   with
  | Ok _ -> Alcotest.fail "wall_ns with unit \"ms\" must be rejected"
  | Error _ -> ());
  (* dropping one universal coverage row must be flagged *)
  (match
     Experiments.Bench_gates.validate_string
       (Experiments.Bench_json.to_json
          (List.filter
             (fun r ->
               not
                 (r.Experiments.Bench_json.bench = "universal_gset"
                 && r.Experiments.Bench_json.procs = 8
                 && r.Experiments.Bench_json.metric = "wall_ns"))
             rows))
   with
  | Ok _ -> Alcotest.fail "missing universal wall_ns coverage accepted"
  | Error _ -> ());
  (match
     Experiments.Bench_gates.validate_string
       (Experiments.Bench_json.to_json
          (List.filter
             (fun r ->
               not
                 (r.Experiments.Bench_json.bench = "scan_lattice_contended"
                 && r.Experiments.Bench_json.backend = "native"
                 && r.Experiments.Bench_json.procs = 8
                 && r.Experiments.Bench_json.metric = "wall_ns"))
             rows))
   with
  | Ok _ -> Alcotest.fail "missing native lattice scan coverage accepted"
  | Error _ -> ());
  (* the incremental mode may never replay more than the reference *)
  let replay_pair v =
    [
      Experiments.Bench_json.row ~bench:"universal_counter" ~procs:2
        ~backend:"sim" ~metric:"spec_replays" ~value:v ~unit_:"calls";
      Experiments.Bench_json.row ~bench:"universal_counter" ~procs:2
        ~backend:"sim" ~metric:"spec_replays_reference" ~value:100.0
        ~unit_:"calls";
    ]
  in
  (match
     Experiments.Bench_gates.validate_string
       (Experiments.Bench_json.to_json (rows @ replay_pair 40.0))
   with
  | Ok _ -> ()
  | Error errs -> Alcotest.fail (String.concat "; " errs));
  (match
     Experiments.Bench_gates.validate_string
       (Experiments.Bench_json.to_json (rows @ replay_pair 140.0))
   with
  | Ok _ -> Alcotest.fail "spec_replays above reference accepted"
  | Error _ -> ());
  (* paper claims: forced steps under the Lemma 6 floor (E2), the double
     collect finishing under contention (E7), an IIS gap above eps (E11)
     and DPOR exploring more schedules than naive (E12) must each be
     rejected *)
  List.iter
    (fun (what, bench, metric, value) ->
      match
        Experiments.Bench_gates.validate_string
          (Experiments.Bench_json.to_json
             (List.map
                (fun r ->
                  if
                    r.Experiments.Bench_json.bench = bench
                    && r.Experiments.Bench_json.metric = metric
                  then { r with Experiments.Bench_json.value }
                  else r)
                rows))
      with
      | Ok _ -> Alcotest.fail (what ^ " accepted")
      | Error _ -> ())
    [
      ("E2 forced below the floor", "theorem7_k4", "forced", 3.0);
      ( "E7 double collect finishing", "snapshot_double_collect",
        "contended_steps", 12.0 );
      ("E11 gap above eps", "iis_k2", "worst_gap", 0.2);
      ("E12 DPOR above naive", "dpor_vs_naive_scan", "dpor_explored", 11.0);
    ];
  (* explore coverage gates: a clean stage reporting a violation, a
     random stage whose sampled count disagrees with explored, a buggy
     stage that failed to find its bug, and a dropped metric row must
     all be flagged *)
  let swap_stage bench stage =
    List.filter (fun r -> r.Experiments.Bench_json.bench <> bench) rows @ stage
  in
  (match
     Experiments.Bench_gates.validate_string
       (Experiments.Bench_json.to_json
          (swap_stage "explore_scan_dpor"
             (explore_stage_rows ~bench:"explore_scan_dpor" ~procs:2
                ~explored:108.0 ~pruned:38.0 ~sampled:0.0 ~violations:1.0)))
   with
  | Ok _ -> Alcotest.fail "violation in the clean explore stage accepted"
  | Error _ -> ());
  (match
     Experiments.Bench_gates.validate_string
       (Experiments.Bench_json.to_json
          (swap_stage "explore_racy_max_uniform"
             (explore_stage_rows ~bench:"explore_racy_max_uniform" ~procs:6
                ~explored:400.0 ~pruned:0.0 ~sampled:250.0 ~violations:234.0)))
   with
  | Ok _ -> Alcotest.fail "random stage with sampled <> explored accepted"
  | Error _ -> ());
  (match
     Experiments.Bench_gates.validate_string
       (Experiments.Bench_json.to_json
          (swap_stage "explore_collect_uniform"
             (explore_stage_rows ~bench:"explore_collect_uniform" ~procs:6
                ~explored:400.0 ~pruned:0.0 ~sampled:400.0 ~violations:0.0)))
   with
  | Ok _ -> Alcotest.fail "injected bug not found but accepted"
  | Error _ -> ());
  (match
     Experiments.Bench_gates.validate_string
       (Experiments.Bench_json.to_json
          (List.filter
             (fun r ->
               not
                 (r.Experiments.Bench_json.bench = "explore_counter_bounded"
                 && r.Experiments.Bench_json.metric = "pruned"))
             rows))
   with
  | Ok _ -> Alcotest.fail "missing explore metric row accepted"
  | Error _ -> ());
  (* store gates (PR 7): batched throughput below unbatched at procs >= 4,
     sim entries exceeding ops, batched entries above the unbatched
     baseline, and dropped store coverage must all be flagged; the same
     store-only rows must fail the validator (which demands every other
     family too) *)
  let replace_store bench stage =
    List.filter (fun r -> r.Experiments.Bench_json.bench <> bench) rows @ stage
  in
  (match
     Experiments.Bench_gates.validate_string
       (Experiments.Bench_json.to_json
          (replace_store "store_batched"
             (store_stage_rows ~bench:"store_batched" ~ops_per_sec:1e5
                ~entries:24.0)))
   with
  | Ok _ -> Alcotest.fail "batched slower than unbatched at procs >= 4 accepted"
  | Error _ -> ());
  (match
     Experiments.Bench_gates.validate_string
       (Experiments.Bench_json.to_json
          (replace_store "store_unbatched"
             (store_stage_rows ~bench:"store_unbatched" ~ops_per_sec:2e5
                ~entries:97.0)))
   with
  | Ok _ -> Alcotest.fail "sim store entries above ops accepted"
  | Error _ -> ());
  (match
     Experiments.Bench_gates.validate_string
       (Experiments.Bench_json.to_json
          (replace_store "store_batched"
             (store_stage_rows ~bench:"store_batched" ~ops_per_sec:4e5
                ~entries:96.0
             |> List.map (fun r ->
                    if r.Experiments.Bench_json.metric = "entries" then
                      Experiments.Bench_json.row ~bench:"store_batched"
                        ~procs:r.Experiments.Bench_json.procs ~backend:"sim"
                        ~metric:"entries" ~value:96.5 ~unit_:"entries"
                    else r))))
   with
  | Ok _ -> Alcotest.fail "non-integer sim store counter accepted"
  | Error _ -> ());
  (match
     Experiments.Bench_gates.validate_string
       (Experiments.Bench_json.to_json
          (List.filter
             (fun r ->
               not
                 (r.Experiments.Bench_json.bench = "store_unbatched"
                 && r.Experiments.Bench_json.procs = 4
                 && r.Experiments.Bench_json.metric = "ops_per_sec"))
             rows))
   with
  | Ok _ -> Alcotest.fail "missing store throughput coverage accepted"
  | Error _ -> ());
  let store_family = store_rows @ windowed_rows in
  (match
     Experiments.Bench_gates.validate_string
       (Experiments.Bench_json.to_json store_family)
   with
  | Ok _ -> Alcotest.fail "store-only rows passed the full validator"
  | Error _ -> ());
  (* series gates (PR 8): per-window ops that no longer reconcile with
     the stage total, a dropped windowed series, a w_-prefixed metric
     without a window, a non-contiguous window index, and a stale
     target_rate must all be flagged *)
  let map_windowed f =
    List.map
      (fun r ->
        if
          r.Experiments.Bench_json.bench = "store_openloop_r5000"
          && r.Experiments.Bench_json.window <> None
        then f r
        else r)
      rows
  in
  (match
     Experiments.Bench_gates.validate_string
       (Experiments.Bench_json.to_json
          (map_windowed (fun r ->
               if r.Experiments.Bench_json.metric = "w_ops" then
                 { r with Experiments.Bench_json.value = 1.0 }
               else r)))
   with
  | Ok _ -> Alcotest.fail "window ops not summing to the stage total accepted"
  | Error _ -> ());
  (match
     Experiments.Bench_gates.validate_string
       (Experiments.Bench_json.to_json
          (List.filter
             (fun r ->
               not
                 (r.Experiments.Bench_json.bench = "store_batched_readmix"
                 && r.Experiments.Bench_json.window <> None))
             rows))
   with
  | Ok _ -> Alcotest.fail "missing windowed series accepted"
  | Error _ -> ());
  (match
     Experiments.Bench_gates.validate_string
       (Experiments.Bench_json.to_json
          (Experiments.Bench_json.row ~bench:"store_openloop_r2000" ~procs:4
             ~backend:"native" ~metric:"w_ops" ~value:3.0 ~unit_:"ops"
          :: rows))
   with
  | Ok _ -> Alcotest.fail "w_-prefixed metric without a window accepted"
  | Error _ -> ());
  (match
     Experiments.Bench_gates.validate_string
       (Experiments.Bench_json.to_json
          (map_windowed (fun r ->
               if r.Experiments.Bench_json.window = Some 1 then
                 { r with Experiments.Bench_json.window = Some 2 }
               else r)))
   with
  | Ok _ -> Alcotest.fail "non-contiguous window indices accepted"
  | Error _ -> ());
  (match
     Experiments.Bench_gates.validate_string
       (Experiments.Bench_json.to_json
          (List.map
             (fun r ->
               if
                 r.Experiments.Bench_json.bench = "store_openloop_r10000"
                 && r.Experiments.Bench_json.metric = "target_rate"
               then { r with Experiments.Bench_json.value = 9000.0 }
               else r)
             rows))
   with
  | Ok _ -> Alcotest.fail "target_rate contradicting the stage name accepted"
  | Error _ -> ());
  (* and broken syntax is a parse error, not a crash *)
  match Experiments.Bench_gates.validate_string "[{\"bench\": }]" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ()

let () =
  Alcotest.run "metrics"
    [
      ( "histogram",
        [
          Alcotest.test_case "stats over 1..100" `Quick test_histogram_stats;
          Alcotest.test_case "singleton" `Quick test_histogram_single;
          Alcotest.test_case "empty/singleton/pair edge cases" `Quick
            test_stats_edge_cases;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "instrument over Direct" `Quick
            test_instrument_direct;
          Alcotest.test_case "instrument over native domains" `Quick
            test_instrument_native_domains;
          Alcotest.test_case "observer matches driver steps" `Quick
            test_observer_matches_driver_steps;
          Alcotest.test_case "spans exact under interleaving" `Quick
            test_spans_under_interleaving;
        ] );
      ( "cost-formula",
        [
          Alcotest.test_case "Section 6.2 formulas, procs 1..8" `Quick
            test_cost_formula_matches_counting_backend;
        ] );
      ( "sink-equivalence",
        [
          Alcotest.test_case "sink = hooked = driver observer, procs 1..8"
            `Quick test_sink_equals_legacy_paths;
        ] );
      ( "contention-events",
        [
          Alcotest.test_case "escalation reaches counters and exporters"
            `Quick test_scan_escalation_reaches_exporters;
        ] );
      ( "bench-json",
        [
          Alcotest.test_case "round-trip + schema gates" `Quick
            test_bench_json_roundtrip;
        ] );
    ]
