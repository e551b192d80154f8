(* The wfa command-line interface.

     dune exec bin/wfa_cli.exe -- <command> ...

   Commands:
     experiment [ID] [--quick]   run and gate one experiment E1..E12 (or all)
     agree --inputs 1,2,3        run approximate agreement on given inputs
     adversary -k K             attack the Figure 2 algorithm (Lemma 6)
     counter --procs N --ops M   torture a wait-free counter on domains
     explore                     model-check snapshot implementations
     trace                       run a workload under the structured tracer
     top [--once]                live per-shard telemetry view of the store
     bench [--quick] [--out F]   run the bench and gate its rows (BENCH.json)
     bench-validate FILE         check a bench JSON file against the gates

   Exit codes are meaningful on every subcommand — non-zero whenever the
   run found a violation of a property it was checking (lost updates,
   agreement out of range, a linearizability violation of a correct
   object, a checker that misses a known-broken object, a malformed
   bench file) — so CI can gate on them. *)

open Cmdliner

(* --- experiment ----------------------------------------------------------- *)

let experiment_cmd =
  let id =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"ID"
           ~doc:"Experiment id (E1..E12); omit to run all.")
  in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Smaller sweeps, faster run.")
  in
  (* prints the experiment's rows and gate verdicts; true iff every gate
     passed *)
  let report quick (e : Experiments.experiment) =
    Printf.printf "\n### %s — %s\n\n" e.id e.paper_source;
    let rows = e.rows ~quick in
    print_string (Experiments.Table.pivot rows);
    print_newline ();
    let verdicts = Experiments.verdicts e rows in
    List.iter
      (fun (name, errs) ->
        Printf.printf "%s  %s\n" (if errs = [] then "pass" else "FAIL") name;
        List.iter (Printf.printf "      %s\n") errs)
      verdicts;
    List.for_all (fun (_, errs) -> errs = []) verdicts
  in
  let run id quick =
    let selected =
      match id with
      | None -> Some Experiments.all
      | Some id -> Option.map (fun e -> [ e ]) (Experiments.find id)
    in
    match selected with
    | None ->
        `Error (false, Printf.sprintf "unknown experiment %S" (Option.get id))
    | Some es -> (
        match List.filter (fun e -> not (report quick e)) es with
        | [] -> `Ok ()
        | failed ->
            `Error
              ( false,
                "gates failed in "
                ^ String.concat ", "
                    (List.map (fun e -> e.Experiments.id) failed) ))
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:
         "Reproduce paper claims: run an experiment's stage, print its \
          bench rows as a table and check its gates.  Non-zero exit when \
          a gate fails.")
    Term.(ret (const run $ id $ quick))

(* --- agree ----------------------------------------------------------------- *)

let agree_cmd =
  let inputs =
    Arg.(
      value
      & opt (list float) [ 0.0; 1.0 ]
      & info [ "inputs" ] ~docv:"X,Y,..."
          ~doc:"One input per process (process count = list length).")
  in
  let epsilon =
    Arg.(value & opt float 0.01 & info [ "epsilon" ] ~doc:"Agreement slack.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Scheduler seed.")
  in
  let run inputs epsilon seed =
    let inputs = Array.of_list inputs in
    let procs = Array.length inputs in
    if procs < 1 then `Error (false, "need at least one input")
    else begin
      let module AA = Agreement.Approx_agreement.Make (Pram.Memory.Sim) in
      let program () =
        let t = AA.create ~procs ~epsilon in
        fun pid ->
          let h = AA.attach t (Runtime.Ctx.make ~procs ~pid ()) in
          AA.input h inputs.(pid);
          AA.output h
      in
      let d = Pram.Driver.create ~procs program in
      Pram.Scheduler.run ~max_steps:10_000_000
        (Pram.Scheduler.random ~seed ())
        d;
      for p = 0 to procs - 1 do
        if Pram.Driver.runnable d p then ignore (Pram.Driver.run_solo d p)
      done;
      let outputs =
        List.init procs (fun p ->
            match Pram.Driver.result d p with
            | Some v ->
                Printf.printf "process %d: input %g -> output %.9g (%d steps)\n"
                  p inputs.(p) v (Pram.Driver.steps d p);
                Some v
            | None ->
                Printf.printf "process %d: no result\n" p;
                None)
      in
      (* gate on the Figure 2 guarantees: everyone terminates (wait-free),
         outputs within the input range (validity), spread <= epsilon
         (agreement) *)
      match List.filter_map Fun.id outputs with
      | vs when List.length vs <> procs -> `Error (false, "a process failed to terminate")
      | vs ->
          let lo_in = Array.fold_left Float.min infinity inputs
          and hi_in = Array.fold_left Float.max neg_infinity inputs in
          let lo = List.fold_left Float.min infinity vs
          and hi = List.fold_left Float.max neg_infinity vs in
          if lo < lo_in || hi > hi_in then
            `Error (false, "validity violated: an output is outside the input range")
          else if hi -. lo > epsilon then
            `Error
              ( false,
                Printf.sprintf "agreement violated: spread %g > epsilon %g"
                  (hi -. lo) epsilon )
          else `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "agree"
       ~doc:"Run wait-free approximate agreement (Figure 2) on inputs.")
    Term.(ret (const run $ inputs $ epsilon $ seed))

(* --- adversary ------------------------------------------------------------- *)

let adversary_cmd =
  let k =
    Arg.(value & opt int 4 & info [ "k" ] ~doc:"Hierarchy level: eps = 3^-k.")
  in
  let run k =
    let row = Agreement.Hierarchy.theorem7_row k in
    Printf.printf
      "k=%d  eps=3^-%d\n\
       Lemma 6 lower bound : %d steps\n\
       adversary forced    : %d steps\n\
       Theorem 5 bound     : %.1f steps\n\
       agreement preserved : %b\n"
      k k row.Agreement.Hierarchy.lower_bound row.Agreement.Hierarchy.forced
      row.Agreement.Hierarchy.upper_bound row.Agreement.Hierarchy.agreement_ok;
    if not row.Agreement.Hierarchy.agreement_ok then
      `Error (false, "adversary broke agreement (implementation bug)")
    else if row.Agreement.Hierarchy.forced < row.Agreement.Hierarchy.lower_bound
    then `Error (false, "adversary forced fewer steps than the Lemma 6 bound")
    else `Ok ()
  in
  Cmd.v
    (Cmd.info "adversary"
       ~doc:
         "Attack the Figure 2 algorithm with the replay adversary of Lemma 6.")
    Term.(ret (const run $ k))

(* --- backends ------------------------------------------------------------------ *)

(* The three ways [counter] and [trace] can run a program.  Every arm
   hands the program versioned registers — [S]-only algorithms take them
   as plain registers — and attaches the sink the canonical way. *)
type backend = Sim | Direct | Native

let backend_enum = [ ("sim", Sim); ("direct", Direct); ("native", Native) ]
let backend_name b = fst (List.find (fun (_, b') -> b' = b) backend_enum)

(* [run_on b ~procs program] runs [program mem () pid] for every pid and
   returns the per-pid results ([None] for a process that never
   finished) with the fired schedule.  [Sim]: fibers on [Sim_v] under
   [scheduler] (default round-robin), accesses through the driver
   observer.  [Direct]: pid after pid on [Direct_v].  [Native]: one
   domain per pid through [Runtime.run_domains] on the seqlock
   registers.  Off the simulator the memory is [Runtime.Instrument]ed
   and the schedule is empty. *)
let run_on backend ?(sink = Runtime.Sink.none) ?scheduler ~procs
    (program : (module Pram.Memory.VERSIONED) -> unit -> int -> 'r) =
  let instrumented (module M : Pram.Memory.VERSIONED) =
    (module Runtime.Instrument
              (M)
              (struct
                let sink = sink
              end) : Pram.Memory.VERSIONED)
  in
  match backend with
  | Sim ->
      let d =
        Pram.Driver.create ?observer:(Runtime.Sink.observer sink) ~procs
          (program (module Pram.Memory.Sim_v))
      in
      Pram.Scheduler.run ~max_steps:10_000_000
        (Option.value scheduler ~default:(Pram.Scheduler.round_robin ()))
        d;
      (List.init procs (Pram.Driver.result d), Pram.Driver.schedule d)
  | Direct ->
      let body = program (instrumented (module Pram.Memory.Direct_v)) () in
      let results =
        List.init procs (fun pid ->
            Runtime.set_pid pid;
            Some (body pid))
      in
      Runtime.set_pid 0;
      (results, [])
  | Native ->
      let body = program (instrumented (module Pram.Native.Versioned)) () in
      (List.map Option.some (Runtime.run_domains ~sink ~procs body), [])

(* --- counter ---------------------------------------------------------------- *)

let counter_cmd =
  let procs =
    Arg.(value & opt int 4 & info [ "procs" ] ~doc:"Domains to spawn.")
  in
  let ops =
    Arg.(value & opt int 10_000 & info [ "ops" ] ~doc:"Increments per domain.")
  in
  let backend =
    Arg.(
      value
      & opt (enum backend_enum) Native
      & info [ "backend" ] ~docv:"B"
          ~doc:"Backend: $(b,native) real domains, $(b,sim) deterministic \
                simulator, $(b,direct) sequential.")
  in
  let run procs ops backend =
    (* Each process reads after its own increments.  The read linearized
       last follows every increment, so the largest read is the total. *)
    let program (module M : Pram.Memory.VERSIONED) () =
      let module C = Universal.Direct.Counter (M) in
      let counter = C.create ~procs in
      fun pid ->
        let h = C.attach counter (Runtime.Ctx.make ~procs ~pid ()) in
        for _ = 1 to ops do
          C.inc h 1
        done;
        C.read h
    in
    let reads, _ = run_on backend ~procs program in
    let final = List.fold_left max 0 (List.filter_map Fun.id reads) in
    Printf.printf "%d processes (%s) x %d increments -> %d (expected %d): %s\n"
      procs (backend_name backend) ops final (procs * ops)
      (if final = procs * ops then "OK" else "LOST UPDATES");
    if final = procs * ops then `Ok () else `Error (false, "counter lost updates")
  in
  Cmd.v
    (Cmd.info "counter"
       ~doc:"Torture the wait-free counter on real domains.")
    Term.(ret (const run $ procs $ ops $ backend))

(* --- explore ------------------------------------------------------------------ *)

let explore_cmd =
  let way_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("naive", `Naive);
               ("systematic", `Systematic);
               ("uniform", `Uniform);
               ("weighted", `Weighted);
             ])
          `Naive
      & info [ "way" ] ~docv:"WAY"
          ~doc:
            "Search strategy (dejafu-style).  $(b,naive) (the default): \
             every maximal schedule, sequentially — the ground truth.  \
             $(b,systematic): parallel DPOR under the $(b,--bound-*) \
             filters (sound for bug finding; exactly one schedule per \
             Mazurkiewicz trace when unbounded, so violations living \
             purely in the real-time order of independent accesses, such \
             as the naive collect's, can be missed).  $(b,uniform): \
             $(b,--samples) seeded random maximal schedules.  \
             $(b,weighted): random with $(b,--bias) towards staying on \
             the current process — near-serial schedules that catch \
             real-time-order bugs uniform sampling rarely hits.")
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "RNG seed for random ways; sample i is a deterministic \
             function of (seed, i), so counterexamples replay exactly.")
  in
  let samples_arg =
    Arg.(
      value & opt int 2_000
      & info [ "samples" ] ~docv:"N"
          ~doc:"Number of random schedules a uniform/weighted way draws.")
  in
  let bias_arg =
    Arg.(
      value & opt float 16.0
      & info [ "bias" ] ~docv:"W"
          ~doc:
            "Weighted way only: relative weight of not context-switching \
             (1.0 = uniform; larger = more serial schedules).")
  in
  let bound_preempt =
    Arg.(
      value
      & opt (some int) None
      & info [ "bound-preempt" ] ~docv:"K"
          ~doc:
            "Systematic way: prune schedules with more than K pre-emptive \
             context switches (a step by p while the previously stepped \
             process is still runnable).")
  in
  let jobs_arg =
    Arg.(
      value & opt int 1
      & info [ "jobs" ] ~docv:"N"
          ~doc:
            "Explore subtree/sample tasks on N domains (the naive way \
             is one sequential task).  The task partition is fixed up \
             front, so coverage counts and counterexamples are identical \
             for any N.")
  in
  let procs_arg =
    Arg.(
      value & opt int 3
      & info [ "procs" ] ~docv:"N"
          ~doc:
            "Process count for the naive-collect fixture (N-1 updaters \
             vs 1 snapshotter, 3..8; the collect needs two updaters to \
             go wrong).  The atomic-snapshot fixture stays at 2 \
             processes.")
  in
  let shrink_flag =
    Arg.(
      value
      & opt ~vopt:true bool true
      & info [ "shrink" ] ~docv:"BOOL"
          ~doc:
            "Delta-debug a failing schedule to a locally minimal \
             counterexample before printing it.")
  in
  let max_schedules =
    Arg.(
      value & opt int 2_000_000
      & info [ "max-schedules" ] ~docv:"N"
          ~doc:"Stop the search after exploring N schedules.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Replay the collect counterexample (shrunk if shrinking is \
             on) with a tracing journal attached, print its annotated \
             timeline, and write the Chrome trace-event JSON to FILE \
             (open in Perfetto or chrome://tracing).")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"SCHEDULE"
          ~doc:
            "Skip the search: replay an encoded schedule (the printed \
             counterexample syntax, e.g. 'p2 p0 p1 !p2' where !pN \
             crashes N) on the naive collect of $(b,--procs) processes, \
             print its timeline and linearizability verdict.")
  in
  let run way seed samples bias b_pre jobs procs shrink
      max_schedules trace_out replay =
    if procs = 2 then
      `Error
        ( false,
          "--procs 2 leaves the naive collect one updater, and it needs two \
           updaters to go wrong; use 3..8" )
    else if procs < 3 || procs > 8 then `Error (false, "--procs must be in 3..8")
    else begin
      let way =
        match way with
        | `Naive -> Pram.Explore.Way.Naive
        | `Systematic ->
            Pram.Explore.Way.Systematic
              (Pram.Explore.Bounds.make ?preempt:b_pre ())
        | `Uniform -> Pram.Explore.Way.Uniform { seed; count = samples }
        | `Weighted -> Pram.Explore.Way.Weighted { seed; count = samples; bias }
      in
      let module V = Snapshot.Slot_value.Int in
      let module Arr = Snapshot.Snapshot_array.Make (V) (Pram.Memory.Sim_v) in
      let module Naive_c = Snapshot.Collect.Make (V) (Pram.Memory.Sim) in
      let module Spec2 =
        Snapshot.Array_spec.Make
          (V)
          (struct
            let procs = 2
          end)
      in
      let module SpecN =
        Snapshot.Array_spec.Make
          (V)
          (struct
            let procs = procs
          end)
      in
      let module Check2 = Lincheck.Make (Spec2) in
      let module CheckN = Lincheck.Make (SpecN) in
      (* the atomic snapshot: updater vs snapshotter, every interleaving
         (or one representative of each equivalence class) is clean *)
      let atomic_program record =
        let t = Arr.create ~variant:Snapshot.Scan.Optimized ~procs:2 in
        fun pid ->
          let h = Arr.attach t (Runtime.Ctx.make ~procs:2 ~pid ()) in
          if pid = 0 then
            ignore
              (record ~pid (`Update (0, 10)) (fun () ->
                   Arr.update h 10;
                   `Unit))
          else ignore (record ~pid `Snapshot (fun () -> `View (Arr.snapshot h)))
      in
      (* the naive collect: N-1 updaters vs a snapshotter is NOT
         linearizable; the explorer finds, shrinks and prints a
         counterexample schedule with its history *)
      let collect_program record =
        let t = Naive_c.create ~procs in
        fun pid ->
          let h = Naive_c.attach t (Runtime.Ctx.make ~procs ~pid ()) in
          if pid < procs - 1 then
            ignore
              (record ~pid (`Update (pid, pid + 10)) (fun () ->
                   Naive_c.update h (pid + 10);
                   `Unit))
          else
            ignore
              (record ~pid `Snapshot (fun () -> `View (Naive_c.snapshot h)))
      in
      let collect_label =
        Printf.sprintf "naive collect, %d updaters vs snapshotter (%d \
                        processes, buggy):"
          (procs - 1) procs
      in
      match replay with
      | Some sched -> (
          (* no search: replay one encoded schedule on the collect with a
             tracing journal attached and report what happened *)
          match Pram.Trace.parse_encoded_schedule sched with
          | Error msg -> `Error (false, "--replay: " ^ msg)
          | Ok enc ->
              let a, history =
                CheckN.trace_counterexample ~procs collect_program enc
              in
              Printf.printf
                "replay on the naive collect (%d updaters vs snapshotter):\n"
                (procs - 1);
              print_endline (Tracing.timeline a);
              Printf.printf "history linearizable: %b\n"
                (CheckN.is_linearizable history);
              (match trace_out with
              | None -> ()
              | Some path ->
                  Tracing.write_file ~path a;
                  Printf.printf "wrote Chrome trace to %s\n" path);
              `Ok ())
      | None ->
          print_endline
            "atomic scan, updater vs snapshotter (2 processes, correct):";
          let atomic_report =
            Check2.search_check ~way ~jobs ~shrink ~max_schedules ~procs:2
              atomic_program
          in
          Format.printf "  @[<v>%a@]@." Pram.Explore.pp_report atomic_report;
          print_endline collect_label;
          let collect_report =
            CheckN.search_check ~way ~jobs ~shrink ~max_schedules ~procs
              collect_program
          in
          Format.printf "  @[<v>%a@]@." Pram.Explore.pp_report collect_report;
          (match collect_report.Pram.Explore.r_counterexample with
          | Some cex ->
              Printf.printf "counterexample provenance: %s\n"
                cex.Pram.Explore.cex_way
          | None -> ());
          (match (trace_out, collect_report.Pram.Explore.r_counterexample) with
          | None, _ -> ()
          | Some _, None ->
              print_endline "no counterexample to trace (search was clean)"
          | Some path, Some cex ->
              let a, _ =
                CheckN.trace_counterexample ~procs collect_program
                  cex.Pram.Explore.cex_shrunk
              in
              print_endline "counterexample timeline:";
              print_endline (Tracing.timeline a);
              Tracing.write_file ~path a;
              Printf.printf "wrote counterexample Chrome trace to %s\n" path);
          (* exit non-zero on any unexpected verdict: the correct object must
             pass its search, and the search must catch the known-broken
             collect — either failure means a real bug, in the algorithm or
             in the explorer.  Exception: the collect's violation lives
             purely in the real-time order of independent accesses, which
             the systematic (DPOR) way is documented to miss — a clean
             report there is a warning, not a failure.  The naive and
             random ways check real executions and must find it. *)
          let dpor_based =
            match way with
            | Pram.Explore.Way.Systematic _ -> true
            | Naive | Uniform _ | Weighted _ -> false
          in
          if not (Pram.Explore.report_ok atomic_report) then
            `Error
              ( false,
                "linearizability violation (or truncated search) on the \
                 atomic snapshot" )
          else if Pram.Explore.report_ok collect_report then
            if dpor_based then begin
              print_endline
                "note: the DPOR-based search missed the collect's \
                 real-time-order violation (a documented limitation); rerun \
                 with --way naive or a random --way for the ground truth";
              `Ok ()
            end
            else
              `Error
                ( false,
                  "the explorer missed the naive collect's known violation" )
          else `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Model-check the atomic snapshot (clean) and the naive collect \
          (broken); failing schedules are shrunk to minimal \
          counterexamples.  $(b,--way) selects every schedule (naive, the \
          default), one representative per Mazurkiewicz trace under \
          optional bounds (systematic), or seeded-random search; the last \
          two parallelize with $(b,--jobs).  $(b,--trace-out) exports the \
          counterexample as a Chrome trace; $(b,--replay) re-executes a \
          pasted schedule under the tracer.")
    Term.(
      ret
        (const run $ way_arg $ seed_arg $ samples_arg $ bias_arg
       $ bound_preempt $ jobs_arg $ procs_arg
       $ shrink_flag $ max_schedules $ trace_out $ replay))

(* --- trace -------------------------------------------------------------------- *)

let trace_cmd =
  let workload =
    Arg.(
      value
      & opt
          (enum
             [ ("scan", `Scan); ("agreement", `Agreement); ("counter", `Counter) ])
          `Scan
      & info [ "workload" ] ~docv:"W"
          ~doc:
            "What to trace: the Section 6 atomic $(b,scan), Figure 2 \
             approximate $(b,agreement), or the universal-construction \
             $(b,counter).")
  in
  let backend =
    Arg.(
      value
      & opt (enum backend_enum) Sim
      & info [ "backend" ] ~docv:"B"
          ~doc:
            "$(b,sim): the deterministic simulator (accesses via the driver \
             observer, logical clock, schedule recorded for replay).  \
             $(b,native): real domains on the seqlock registers (accesses \
             via the Runtime.Instrument wrapper, monotonic clock).  \
             $(b,direct): sequential, instrumented like native.")
  in
  let procs =
    Arg.(value & opt int 3 & info [ "procs" ] ~docv:"N" ~doc:"Process count.")
  in
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("timeline", `Timeline); ("chrome", `Chrome) ]) `Timeline
      & info [ "format" ] ~docv:"F"
          ~doc:
            "Rendering: per-process ASCII $(b,timeline), or the $(b,chrome) \
             trace-event archive (open in Perfetto / chrome://tracing; it \
             also holds the schedule, and Tracing.load_file reads it \
             back).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Write to FILE instead of stdout.")
  in
  let seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Simulator only: drive with a seeded random scheduler instead \
             of round-robin.")
  in
  let sched_arg =
    Arg.(
      value
      & opt
          (some
             (enum
                [ ("round-robin", `Rr); ("random", `Random); ("pct", `Pct) ]))
          None
      & info [ "sched" ] ~docv:"S"
          ~doc:
            "Simulator only: the scheduling policy — $(b,round-robin) (the \
             default), seeded $(b,random), or $(b,pct) (probabilistic \
             concurrency testing: random priorities, highest runnable \
             first, with $(b,--depth) distinct demotion points; uses \
             $(b,--seed), default 42).  Without $(b,--sched), giving \
             $(b,--seed) selects $(b,random).")
  in
  let depth_arg =
    Arg.(
      value & opt int 3
      & info [ "depth" ] ~docv:"N"
          ~doc:
            "PCT only: number of distinct priority-demotion points — the d \
             in the 1/(n k^(d-1)) detection bound.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Self-validate the trace and exit non-zero on failure: the \
             Chrome archive (the $(b,--out) file, when $(b,--format chrome) \
             wrote one) must load back to the same archive; on the \
             simulator additionally replay its schedule and require a \
             byte-identical re-export.")
  in
  let variant_arg =
    Arg.(
      value
      & opt
          (some
             (enum
                [
                  ("plain", Snapshot.Scan.Plain);
                  ("optimized", Snapshot.Scan.Optimized);
                  ("adaptive", Snapshot.Scan.Adaptive);
                  ("lattice", Snapshot.Scan.Lattice);
                ]))
          None
      & info [ "variant" ] ~docv:"V"
          ~doc:
            "The scan variant the traced object is created with — \
             $(b,plain), $(b,optimized), $(b,adaptive), or $(b,lattice) \
             (the classifier-tree scan; its descents show up as \
             classifier_descend telemetry and lattice-descend journal \
             annotations).  Without it, the $(b,scan) workload traces \
             $(b,optimized) and the $(b,counter) workload its anchor's \
             default, $(b,adaptive).  The $(b,agreement) workload has no \
             scan and rejects it.")
  in
  let run workload kind procs fmt out seed sched depth check variant =
    if procs <= 0 then `Error (false, "procs must be positive")
    else if depth < 1 then `Error (false, "depth must be at least 1")
    else if workload = `Agreement && variant <> None then
      `Error (true, "--variant does not apply to the agreement workload")
    else begin
      (* One workload program over any backend: the context carries the
         journal, so the same code paths are traced whichever arm runs
         it.  Accesses are fed by the driver observer under sim and by
         the Runtime.Instrument wrapper otherwise; both come out of the
         same [Runtime.Sink]. *)
      let make_program j (module M : Pram.Memory.VERSIONED) () =
        let sink = Runtime.Sink.make ~journal:j () in
        let ctx pid = Runtime.Ctx.make ~sink ~procs ~pid () in
        match workload with
        | `Scan ->
            let module S = Snapshot.Scan.Make (Semilattice.Int_max) (M) in
            let t =
              S.create
                ~variant:(Option.value variant ~default:Snapshot.Scan.Optimized)
                ~procs
            in
            fun pid ->
              let h = S.attach t (ctx pid) in
              S.write_l h (pid + 1);
              ignore (S.read_max h)
        | `Agreement ->
            let module AA = Agreement.Approx_agreement.Make (M) in
            let t = AA.create ~procs ~epsilon:0.05 in
            fun pid ->
              let h = AA.attach t (ctx pid) in
              AA.input h (float_of_int pid);
              ignore (AA.output h)
        | `Counter ->
            let module UC =
              Universal.Construction.Make (Spec.Counter_spec) (M)
            in
            let t = UC.create ?variant ~procs () in
            fun pid ->
              let h = UC.attach t (ctx pid) in
              ignore (UC.execute h (Spec.Counter_spec.Inc 1));
              ignore (UC.execute h Spec.Counter_spec.Read)
      in
      let run_once () =
        let j =
          match kind with
          | Native -> Tracing.Journal.create ~clock:`Monotonic ~procs ()
          | Sim | Direct -> Tracing.Journal.create ~procs ()
        in
        let scheduler =
          match (sched, seed) with
          | Some `Rr, _ -> Some (Pram.Scheduler.round_robin ())
          | Some `Random, _ | None, Some _ ->
              Some
                (Pram.Scheduler.random ~seed:(Option.value seed ~default:42) ())
          | Some `Pct, _ ->
              Some
                (Pram.Scheduler.pct
                   ~seed:(Option.value seed ~default:42)
                   ~depth ~max_steps:1_000 ())
          | None, None -> None
        in
        let _, schedule =
          run_on kind
            ~sink:(Runtime.Sink.make ~journal:j ())
            ?scheduler ~procs (make_program j)
        in
        Tracing.archive ~schedule j
      in
      (* replay a saved simulator schedule with a fresh journal: the basis
         of the --check byte-identity guarantee *)
      let replay_sim sched =
        let j = Tracing.Journal.create ~procs () in
        let d =
          Pram.Driver.create
            ~observer:(Tracing.Journal.observer j)
            ~procs
            (make_program j (module Pram.Memory.Sim_v))
        in
        ignore (Pram.Explore.apply_encoded d sched);
        Tracing.archive ~schedule:sched j
      in
      let a = run_once () in
      let saved = Tracing.save a in
      let rendered =
        match fmt with
        | `Timeline -> Tracing.timeline a ^ "\n"
        | `Chrome -> saved
      in
      (match out with
      | None -> print_string rendered
      | Some path ->
          let oc = open_out path in
          output_string oc rendered;
          close_out oc;
          Printf.printf "wrote %d events to %s\n"
            (List.length a.Tracing.a_events)
            path);
      if not check then `Ok ()
      else begin
        (* the acceptance loop: save -> load -> replay the schedule ->
           save, byte-for-byte, on the file just written when there is
           one *)
        let loaded =
          match (fmt, out) with
          | `Chrome, Some path -> Tracing.load_file ~path
          | _ -> Tracing.parse saved
        in
        let errors =
          match loaded with
          | Error e -> [ "the archive does not load back: " ^ e ]
          | Ok a' ->
              (if a' <> a then [ "save -> load changes the archive" ] else [])
              @
              if
                kind = Sim
                && Tracing.save (replay_sim a'.Tracing.a_schedule) <> saved
              then [ "replayed schedule does not re-export byte-identically" ]
              else []
        in
        match errors with
        | [] ->
            Printf.printf "check: ok (%d events)\n"
              (List.length a.Tracing.a_events);
            `Ok ()
        | errs -> `Error (false, String.concat "; " errs)
      end
    end
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a workload with the structured tracer attached and render \
          the event journal as a timeline or as the Chrome trace-event \
          archive.")
    Term.(
      ret
        (const run $ workload $ backend $ procs $ format_arg $ out $ seed
       $ sched_arg $ depth_arg $ check $ variant_arg))

(* --- top ---------------------------------------------------------------------- *)

(* A live terminal view over a telemetry-instrumented store run: the
   bench's native store harness (Bench_stages.drive_store) drives keyed
   zipfian traffic through Wfa.Store while the main domain refreshes a
   per-shard table (throughput, queue depth, fallbacks, rebuilds) from
   the shared Telemetry.Counters grid.  The same renderer prints one
   final snapshot in --once mode, which is what CI smokes. *)
let top_cmd =
  let procs =
    Arg.(value & opt int 4 & info [ "procs" ] ~docv:"N" ~doc:"Driving domains.")
  in
  let shards =
    Arg.(value & opt int 8 & info [ "shards" ] ~docv:"S" ~doc:"Store shards.")
  in
  let ops =
    Arg.(
      value & opt int 20_000
      & info [ "ops" ] ~docv:"M" ~doc:"Operations per domain.")
  in
  let refresh =
    Arg.(
      value & opt float 0.5
      & info [ "refresh" ] ~docv:"SEC"
          ~doc:"Refresh (and sampling-window) interval in seconds.")
  in
  let once =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:
            "Run the workload to completion and print a single snapshot \
             instead of live-refreshing (the CI smoke mode).")
  in
  let prom =
    Arg.(
      value
      & opt (some string) None
      & info [ "prom" ] ~docv:"FILE"
          ~doc:
            "After the run, write the OpenMetrics exposition (counters \
             plus the windowed series) to FILE; the text is linted with \
             the in-repo parser first.")
  in
  let read_fraction =
    Arg.(
      value & opt float 0.5
      & info [ "read-fraction" ] ~docv:"F"
          ~doc:"Fraction of read operations in the keyed script.")
  in
  let rate =
    Arg.(
      value
      & opt (some float) None
      & info [ "rate" ] ~docv:"R"
          ~doc:
            "Open-loop aggregate arrival rate in ops/s (split evenly \
             across domains, coordinated-omission corrected); without \
             it the loop is closed.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Workload seed.")
  in
  let render ~live ~procs ~t0 ~counters ~sampler () =
    let module T = Telemetry in
    let elapsed =
      Float.max
        (Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e9)
        1e-9
    in
    let total_ops = T.Sampler.total_ops sampler in
    let buf = Buffer.create 1024 in
    let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
    line "wfa top — procs %d, shards %d, elapsed %.1fs" procs
      (T.Counters.families counters) elapsed;
    line "ops %d (%.0f ops/s overall)  windows %d  dropped %d" total_ops
      (float_of_int total_ops /. elapsed)
      (List.length (T.Sampler.windows sampler))
      (T.Sampler.dropped sampler);
    (match List.rev (T.Sampler.windows sampler) with
    | [] -> ()
    | w :: _ ->
        let lat =
          match w.T.Window.latency with
          | None -> "latency -"
          | Some s ->
              Printf.sprintf "p50 %dns p99 %dns" s.Telemetry.Stats.p50
                s.Telemetry.Stats.p99
        in
        line "last window: %d ops (%.0f ops/s)  %s" w.T.Window.ops
          (float_of_int w.T.Window.ops /. T.Sampler.interval sampler)
          lat);
    line "%-6s %12s %10s %10s %9s" "shard" "queue_depth" "ops/s" "fallback"
      "rebuild";
    for s = 0 to T.Counters.families counters - 1 do
      let f e = T.Counters.family_total counters ~family:s e in
      line "%-6d %12d %10.0f %10d %9d" s
        (f T.Event.Shard_queue_depth)
        (float_of_int (f T.Event.Shard_queue_depth) /. elapsed)
        (f T.Event.Store_batch_fallback)
        (f T.Event.Store_rebuild)
    done;
    line "%s"
      (String.concat "  "
         (List.map
            (fun e ->
              Printf.sprintf "%s=%d" (T.Event.name e)
                (T.Counters.total counters e))
            T.Event.all));
    if live then print_string "\027[2J\027[H";
    print_string (Buffer.contents buf);
    flush stdout
  in
  let run procs shards ops refresh once prom read_fraction rate seed =
    if procs <= 0 then `Error (false, "--procs must be positive")
    else if shards <= 0 then `Error (false, "--shards must be positive")
    else if refresh <= 0.0 then `Error (false, "--refresh must be positive")
    else if ops < 0 then `Error (false, "--ops must be non-negative")
    else if (match rate with Some r -> not (r > 0.0) | None -> false) then
      `Error (false, "--rate must be positive")
    else if read_fraction < 0.0 || read_fraction > 1.0 then
      `Error (false, "--read-fraction must be in [0,1]")
    else begin
      let counters = Telemetry.Counters.create ~families:shards ~procs () in
      let sampler =
        Telemetry.Sampler.create ~interval:refresh ~counters ()
      in
      let loop =
        match rate with
        | None -> Workload.Traffic.Closed
        | Some r -> Workload.Traffic.Open { rate = r /. float_of_int procs }
      in
      let t0 = Monotonic_clock.now () in
      let drive () =
        ignore
          (Experiments.Bench_stages.drive_store ~counters ~sampler ~procs
             ~batching:(Universal.Store.Batched 64) ~read_fraction ~seed ~loop
             ~ops_per_proc:ops)
      in
      if once then drive ()
      else begin
        (* workers on their own domain tree; the main domain renders
           off the shared (atomic) counter grid until they finish *)
        let done_ = Atomic.make false in
        let runner =
          Domain.spawn (fun () ->
              Fun.protect ~finally:(fun () -> Atomic.set done_ true) drive)
        in
        while not (Atomic.get done_) do
          Unix.sleepf refresh;
          Telemetry.Sampler.tick sampler;
          render ~live:true ~procs ~t0 ~counters ~sampler ()
        done;
        Domain.join runner
      end;
      Telemetry.Sampler.finish sampler;
      render ~live:false ~procs ~t0 ~counters ~sampler ();
      let completed = Telemetry.Sampler.total_ops sampler in
      let prom_result =
        match prom with
        | None -> Ok ()
        | Some path -> (
            let text = Telemetry.Openmetrics.render ~sampler counters in
            match Telemetry.Openmetrics.lint text with
            | Error e -> Error ("OpenMetrics lint failed: " ^ e)
            | Ok _ ->
                let oc = open_out path in
                output_string oc text;
                close_out oc;
                Printf.printf "wrote OpenMetrics exposition to %s\n" path;
                Ok ())
      in
      match prom_result with
      | Error e -> `Error (false, e)
      | Ok () ->
          if completed <> procs * ops then
            `Error
              ( false,
                Printf.sprintf "drove %d ops but expected %d" completed
                  (procs * ops) )
          else if Telemetry.Sampler.dropped sampler > 0 then
            `Error
              ( false,
                Printf.sprintf "sampler dropped %d windows (ring overflow)"
                  (Telemetry.Sampler.dropped sampler) )
          else `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Drive keyed zipfian traffic through the sharded store on real \
          domains and watch it live: a refreshing per-shard table of \
          throughput, queue depth, batch fallbacks and rebuilds from the \
          telemetry counter grid, with per-window ops/sec and latency \
          quantiles from the sampler.  $(b,--once) prints a single \
          snapshot after the run (the CI smoke); $(b,--prom) exports the \
          OpenMetrics text.")
    Term.(
      ret
        (const run $ procs $ shards $ ops $ refresh $ once $ prom
       $ read_fraction $ rate $ seed))

(* --- bench / bench-validate -------------------------------------------------- *)

let bench_cmd =
  let out =
    Arg.(
      value
      & opt string Experiments.default_path
      & info [ "out" ] ~docv:"FILE" ~doc:"Output path for the JSON rows.")
  in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Smaller sweeps, faster run.")
  in
  let run out quick =
    let rows = Experiments.run_bench ~path:out ~quick () in
    Printf.printf "wrote %d rows to %s\n" (List.length rows) out;
    match Experiments.Bench_gates.validate_file out with
    | Ok _ -> `Ok ()
    | Error errs ->
        `Error (false, "schema check failed: " ^ String.concat "; " errs)
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Run the bench: simulator step counts, native multi-domain \
          throughput and wall-clock spans (procs 1,2,4,8), direct \
          single-threaded timing, and the windowed telemetry series — \
          the BENCH.json rows — then check them against the gate table.")
    Term.(ret (const run $ out $ quick))

let bench_validate_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Bench JSON file to validate.")
  in
  let run file =
    match Experiments.Bench_gates.validate_file file with
    | Ok n ->
        Printf.printf "%s: ok (%d rows)\n" file n;
        `Ok ()
    | Error errs ->
        List.iter (Printf.eprintf "%s: %s\n" file) errs;
        `Error (false, Printf.sprintf "%d schema error(s)" (List.length errs))
  in
  Cmd.v
    (Cmd.info "bench-validate"
       ~doc:
         "Validate a bench JSON file against the gate table: syntax, the \
          row schema, sim scan rows against Scan.cost_formula, stage \
          coverage, zero lost updates, the batching and scan orderings, \
          the windowed-series reconciliation and the exploration \
          verdicts.  Non-zero exit on any failure (the CI gate).")
    Term.(ret (const run $ file))

let () =
  let default =
    Term.(ret (const (`Help (`Pager, None))))
  in
  let info =
    Cmd.info "wfa" ~version:"1.0.0"
      ~doc:"Wait-free data structures in the asynchronous PRAM model."
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            experiment_cmd;
            agree_cmd;
            adversary_cmd;
            counter_cmd;
            explore_cmd;
            trace_cmd;
            top_cmd;
            bench_cmd;
            bench_validate_cmd;
          ]))
