(* Experiments E5 and E7: atomic scan cost and the snapshot comparison.

   E5 (Section 6.2): exact per-Scan read/write counts, which the gates
   pin to the paper's formulas (Scan.cost_formula) — the uncontended
   rows of the bench's simulator scan stage.

   E7 (Related work): steps per operation for the scan-based snapshot,
   the Afek et al. helping snapshot, the double collect and the naive
   (incorrect) collect, quiet and contended, plus the number of random
   schedules whose history the linearizability checker rejects. *)

let e5 ~quick:_ =
  List.concat_map
    (fun procs ->
      List.concat_map
        (fun variant ->
          Bench_stages.sim_scan_rows ~variant ~procs ~contended:false)
        Bench_stages.scan_variants)
    Bench_stages.procs_sweep

(* --- E7: comparing snapshot algorithms ----------------------------------- *)

module V = Snapshot.Slot_value.Int
module Arr = Snapshot.Snapshot_array.Make (V) (Pram.Memory.Sim_v)
module DC = Snapshot.Double_collect.Make (V) (Pram.Memory.Sim)
module AF = Snapshot.Afek.Make (V) (Pram.Memory.Sim)
module Naive = Snapshot.Collect.Make (V) (Pram.Memory.Sim)

(* One snapshot object with its types hidden: [algorithm ~procs]
   allocates it, and the result attaches process [pid] as its update and
   snapshot. *)
type algorithm = procs:int -> int -> (int -> unit) * (unit -> int array)

let ctx ~procs pid = Runtime.Ctx.make ~procs ~pid ()

let scan : algorithm =
 fun ~procs ->
  let t = Arr.create ~variant:Snapshot.Scan.Optimized ~procs in
  fun pid ->
    let h = Arr.attach t (ctx ~procs pid) in
    (Arr.update h, fun () -> Arr.snapshot h)

let afek : algorithm =
 fun ~procs ->
  let t = AF.create ~procs in
  fun pid ->
    let h = AF.attach t (ctx ~procs pid) in
    (AF.update h, fun () -> AF.snapshot h)

let double_collect : algorithm =
 fun ~procs ->
  let t = DC.create ~procs in
  fun pid ->
    let h = DC.attach t (ctx ~procs pid) in
    (DC.update h, fun () -> DC.snapshot_exn ~max_rounds:1_000_000 h)

let naive_collect : algorithm =
 fun ~procs ->
  let t = Naive.create ~procs in
  fun pid ->
    let h = Naive.attach t (ctx ~procs pid) in
    (Naive.update h, fun () -> Naive.snapshot h)

let e7_algorithms =
  [
    ("snapshot_scan", scan);
    ("snapshot_afek", afek);
    ("snapshot_double_collect", double_collect);
    ("snapshot_naive_collect", naive_collect);
  ]

(* Steps for process 0 to perform one update followed by one snapshot,
   running solo (quiet cost). *)
let quiet_steps (algorithm : algorithm) ~procs =
  let program () =
    let attach = algorithm ~procs in
    fun pid ->
      let update, snapshot = attach pid in
      update (pid + 1);
      ignore (snapshot ())
  in
  let d = Pram.Driver.create ~procs program in
  ignore (Pram.Driver.run_solo d 0);
  Pram.Driver.steps d 0

(* The reader's steps after which a contended snapshot counts as
   starved. *)
let starvation_budget = 10_000

(* Steps of process 0's snapshot while the writers keep writing, each
   writer taking one step between reader steps; a reader that has not
   returned after [starvation_budget] steps reads as the budget. *)
let contended_steps (algorithm : algorithm) ~procs =
  let program () =
    let attach = algorithm ~procs in
    fun pid ->
      let update, snapshot = attach pid in
      if pid = 0 then ignore (snapshot ())
      else
        for i = 1 to 100_000 do
          update i
        done
  in
  let d = Pram.Driver.create ~procs program in
  while Pram.Driver.runnable d 0 && Pram.Driver.steps d 0 < starvation_budget do
    for p = 1 to procs - 1 do
      if Pram.Driver.runnable d p then Pram.Driver.step d p
    done;
    Pram.Driver.step d 0
  done;
  Pram.Driver.steps d 0

module Arr_spec3 =
  Snapshot.Array_spec.Make
    (V)
    (struct
      let procs = 3
    end)

module Check = Lincheck.Make (Arr_spec3)

(* Random schedules, of [seeds], whose history the checker rejects:
   every one of 3 processes updates, then snapshots. *)
let violations (algorithm : algorithm) ~seeds =
  List.length
    (List.filter
       (fun seed ->
         let recorder = Spec.History.Recorder.create () in
         let record = Spec.History.Recorder.record recorder in
         let program () =
           let attach = algorithm ~procs:3 in
           fun pid ->
             let update, snapshot = attach pid in
             ignore
               (record ~pid (`Update (pid, pid + 10)) (fun () ->
                    update (pid + 10);
                    `Unit));
             ignore (record ~pid `Snapshot (fun () -> `View (snapshot ())))
         in
         let d = Pram.Driver.create ~procs:3 program in
         Pram.Scheduler.run (Pram.Scheduler.random ~seed ()) d;
         not (Check.is_linearizable (Spec.History.Recorder.events recorder)))
       (List.init seeds Fun.id))

(* Quiet and contended steps at procs 4, checker rejections at procs 3. *)
let e7 ~quick =
  let seeds = if quick then 100 else 400 in
  List.concat_map
    (fun (bench, algorithm) ->
      let mk ~procs metric value unit_ =
        Bench_json.row ~bench ~procs ~backend:"sim" ~metric
          ~value:(float_of_int value) ~unit_
      in
      [
        mk ~procs:4 "quiet_steps" (quiet_steps algorithm ~procs:4) "accesses";
        mk ~procs:4 "contended_steps"
          (contended_steps algorithm ~procs:4)
          "accesses";
        mk ~procs:3 "violations" (violations algorithm ~seeds) "schedules";
      ])
    e7_algorithms
