(* Experiments E5 and E7: atomic scan cost and the snapshot comparison.

   E5 (Section 6.2): exact per-Scan read/write counts vs the paper's
   formulas — n^2+n+1 reads / n+2 writes plain, n^2-1 reads / n+1 writes
   optimized, 4(n-1) reads / 1 write for the uncontended adaptive fast
   path (PR 9), and 2(n-1) + n*ceil(log2 n) reads / ceil(log2 n) + 3
   writes for the classifier-tree lattice scan (PR 10) — contended or
   not.  These are exact counts, so the table must match the formulas
   exactly.

   E7 (Related work): cost per operation for the scan-based snapshot vs
   the double-collect baseline (quiet and contended) vs the Afek et al.
   helping snapshot vs the naive (incorrect) collect; plus the
   linearizability-checker verdicts that separate correct from broken. *)

module L = Semilattice.Nat_max
module Scan = Snapshot.Scan.Make (L) (Pram.Memory.Sim_v)

(* Reads and writes of one Scan by process 0, as the driver counts
   them. *)
let scan_cost ~procs ~variant =
  let program () =
    let t = Scan.create ~variant ~procs in
    fun pid ->
      let h = Scan.attach t (Runtime.Ctx.make ~procs ~pid ()) in
      Scan.scan h (pid + 1)
  in
  let d = Pram.Driver.create ~procs program in
  ignore (Pram.Driver.run_solo d 0);
  (Pram.Driver.reads d 0, Pram.Driver.writes d 0)

let e5 ?(ns = [ 1; 2; 3; 4; 6; 8; 10; 12 ]) () =
  let t =
    Table.create
      ~title:
        "E5 (Section 6.2): per-Scan cost, measured vs formula \
         (reads/writes)"
      ~header:
        [
          "n";
          "plain meas";
          "plain formula";
          "opt meas";
          "opt formula";
          "adapt meas";
          "adapt formula";
          "lat meas";
          "lat formula";
          "exact";
        ]
  in
  List.iter
    (fun n ->
      let pr, pw = scan_cost ~procs:n ~variant:Snapshot.Scan.Plain in
      let or_, ow = scan_cost ~procs:n ~variant:Snapshot.Scan.Optimized in
      let ar, aw = scan_cost ~procs:n ~variant:Snapshot.Scan.Adaptive in
      let lr, lw = scan_cost ~procs:n ~variant:Snapshot.Scan.Lattice in
      let fpr, fpw = Snapshot.Scan.cost_formula ~procs:n Snapshot.Scan.Plain in
      let for_, fow =
        Snapshot.Scan.cost_formula ~procs:n Snapshot.Scan.Optimized
      in
      let far, faw =
        Snapshot.Scan.cost_formula ~procs:n Snapshot.Scan.Adaptive
      in
      let flr, flw =
        Snapshot.Scan.cost_formula ~procs:n Snapshot.Scan.Lattice
      in
      let exact =
        pr = fpr && pw = fpw && or_ = for_ && ow = fow && ar = far && aw = faw
        && lr = flr && lw = flw
      in
      Table.add_row t
        [
          string_of_int n;
          Printf.sprintf "%d/%d" pr pw;
          Printf.sprintf "%d/%d" fpr fpw;
          Printf.sprintf "%d/%d" or_ ow;
          Printf.sprintf "%d/%d" for_ fow;
          Printf.sprintf "%d/%d" ar aw;
          Printf.sprintf "%d/%d" far faw;
          Printf.sprintf "%d/%d" lr lw;
          Printf.sprintf "%d/%d" flr flw;
          (if exact then "yes" else "NO");
        ])
    ns;
  t

(* --- E7: comparing snapshot algorithms ----------------------------------- *)

module V = Snapshot.Slot_value.Int
module Arr = Snapshot.Snapshot_array.Make (V) (Pram.Memory.Sim_v)
module DC = Snapshot.Double_collect.Make (V) (Pram.Memory.Sim)
module AF = Snapshot.Afek.Make (V) (Pram.Memory.Sim)
module Naive = Snapshot.Collect.Make (V) (Pram.Memory.Sim)

(* Steps for process 0 to perform one update followed by one snapshot,
   running solo (quiet cost). *)
let quiet_cost create attach update snapshot ~procs =
  let program () =
    let t = create ~procs in
    fun pid ->
      let h = attach t (Runtime.Ctx.make ~procs ~pid ()) in
      update h (pid + 1);
      ignore (snapshot h)
  in
  let d = Pram.Driver.create ~procs program in
  ignore (Pram.Driver.run_solo d 0);
  Pram.Driver.steps d 0

(* Steps for process 0's snapshot while writers keep writing: an
   interleaved schedule giving each writer one step between each reader
   step.  Returns None if the reader fails to finish within [budget]
   reader steps (starvation). *)
let contended_cost create attach update snapshot ~procs ~budget =
  let program () =
    let t = create ~procs in
    fun pid ->
      let h = attach t (Runtime.Ctx.make ~procs ~pid ()) in
      if pid = 0 then begin
        ignore (snapshot h);
        true
      end
      else begin
        for i = 1 to 100_000 do
          update h i
        done;
        true
      end
  in
  let d = Pram.Driver.create ~procs program in
  let rec loop k =
    if k = 0 then None
    else if not (Pram.Driver.runnable d 0) then Some (Pram.Driver.steps d 0)
    else begin
      (* one step for each writer, then one for the reader *)
      for p = 1 to procs - 1 do
        if Pram.Driver.runnable d p then Pram.Driver.step d p
      done;
      if Pram.Driver.runnable d 0 then Pram.Driver.step d 0;
      loop (k - 1)
    end
  in
  loop budget

let e7_cost ?(procs = 4) () =
  let t =
    Table.create
      ~title:
        "E7a: snapshot algorithms — steps per update+snapshot (quiet) and \
         snapshot under contention"
      ~header:[ "algorithm"; "quiet steps"; "contended snapshot steps"; "wait-free" ]
  in
  let budget = 10_000 in
  let arr_quiet =
    quiet_cost (Arr.create ~variant:Snapshot.Scan.Optimized) Arr.attach
      (fun h v -> Arr.update h v)
      (fun h -> Arr.snapshot h)
      ~procs
  in
  let arr_cont =
    contended_cost (Arr.create ~variant:Snapshot.Scan.Optimized) Arr.attach
      (fun h v -> Arr.update h v)
      (fun h -> Arr.snapshot h)
      ~procs ~budget
  in
  let dc_quiet =
    quiet_cost DC.create DC.attach
      (fun h v -> DC.update h v)
      (fun h -> DC.snapshot_exn ~max_rounds:1000 h)
      ~procs
  in
  let dc_cont =
    contended_cost DC.create DC.attach
      (fun h v -> DC.update h v)
      (fun h -> DC.snapshot_exn ~max_rounds:1_000_000 h)
      ~procs ~budget
  in
  let af_quiet =
    quiet_cost AF.create AF.attach
      (fun h v -> AF.update h v)
      (fun h -> AF.snapshot h)
      ~procs
  in
  let af_cont =
    contended_cost AF.create AF.attach
      (fun h v -> AF.update h v)
      (fun h -> AF.snapshot h)
      ~procs ~budget
  in
  let naive_quiet =
    quiet_cost Naive.create Naive.attach
      (fun h v -> Naive.update h v)
      (fun h -> Naive.snapshot h)
      ~procs
  in
  let cell = function
    | Some s -> string_of_int s
    | None -> "STARVED"
  in
  Table.add_row t
    [ "scan (Sec. 6)"; string_of_int arr_quiet; cell arr_cont; "yes" ];
  Table.add_row t
    [ "Afek et al. (helping)"; string_of_int af_quiet; cell af_cont; "yes" ];
  Table.add_row t
    [ "double collect"; string_of_int dc_quiet; cell dc_cont; "no (lock-free)" ];
  Table.add_row t
    [ "naive collect"; string_of_int naive_quiet; "n/a"; "NOT LINEARIZABLE" ];
  t

(* Checker verdicts: search seeds for a linearizability violation of each
   algorithm; correct algorithms never produce one, the naive collect
   does. *)
module Arr_spec3 =
  Snapshot.Array_spec.Make
    (V)
    (struct
      let procs = 3
    end)

module Check = Lincheck.Make (Arr_spec3)

let violation_search ~seeds attach update snapshot create =
  let found = ref None in
  let seed = ref 0 in
  while !found = None && !seed < seeds do
    let recorder = Spec.History.Recorder.create () in
    let program () =
      let t = create ~procs:3 in
      fun pid ->
        let h = attach t (Runtime.Ctx.make ~procs:3 ~pid ()) in
        ignore
          (Spec.History.Recorder.record recorder ~pid (`Update (pid, pid + 10))
             (fun () ->
               update h (pid + 10);
               `Unit));
        ignore
          (Spec.History.Recorder.record recorder ~pid `Snapshot (fun () ->
               `View (snapshot h)))
    in
    let d = Pram.Driver.create ~procs:3 program in
    Pram.Scheduler.run (Pram.Scheduler.random ~seed:!seed ()) d;
    if not (Check.is_linearizable (Spec.History.Recorder.events recorder)) then
      found := Some !seed;
    incr seed
  done;
  !found

let e7_verdicts ?(seeds = 400) () =
  let t =
    Table.create
      ~title:
        "E7b: linearizability-checker verdicts over random schedules \
         (update+snapshot per process, 3 processes)"
      ~header:[ "algorithm"; "schedules checked"; "violation found" ]
  in
  let scan_v =
    violation_search ~seeds Arr.attach
      (fun h v -> Arr.update h v)
      (fun h -> Arr.snapshot h)
      (Arr.create ~variant:Snapshot.Scan.Optimized)
  in
  let af_v =
    violation_search ~seeds AF.attach
      (fun h v -> AF.update h v)
      (fun h -> AF.snapshot h)
      AF.create
  in
  let naive_v =
    violation_search ~seeds Naive.attach
      (fun h v -> Naive.update h v)
      (fun h -> Naive.snapshot h)
      Naive.create
  in
  let cell = function
    | None -> "none"
    | Some s -> Printf.sprintf "YES (seed %d)" s
  in
  Table.add_row t [ "scan (Sec. 6)"; string_of_int seeds; cell scan_v ];
  Table.add_row t [ "Afek et al."; string_of_int seeds; cell af_v ];
  Table.add_row t [ "naive collect"; string_of_int seeds; cell naive_v ];
  t
