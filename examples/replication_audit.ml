(* Monitoring a cross-process invariant with atomic snapshots.

     dune exec examples/replication_audit.exe

   A primary commits log entries (bumping [committed]); a replica applies
   them (setting [applied] to a committed index it has read).  The system
   invariant is applied <= committed — the replica can never be ahead.

   A monitoring process that reads the two counters one at a time (the
   "naive collect") can observe applied > committed: it reads [committed]
   first, both processes advance, then it reads the now-larger [applied].
   The alarm is FALSE — no such state ever existed.  The Section 6 atomic
   snapshot reads both as of one instant, so it never raises a false
   alarm.  This example engineers precisely that schedule in the
   deterministic simulator and shows the two monitors disagreeing. *)

(* Both counters as slots of one snapshot object: slot 0 = committed
   (written by the primary), slot 1 = applied (written by the replica). *)
module Snap = Wfa.Snapshot.Snapshot_array.Make (Wfa.Snapshot.Slot_value.Int) (Wfa.Pram.Memory.Sim_v)
module Naive = Wfa.Snapshot.Collect.Make (Wfa.Snapshot.Slot_value.Int) (Wfa.Pram.Memory.Sim)

type verdict = { false_alarms : int; observations : int }

let run ~use_atomic ~rounds =
  let program () =
    let snap = Snap.create ~variant:Wfa.Snapshot.Scan.Optimized ~procs:3 in
    let naive = Naive.create ~procs:3 in
    fun pid ->
      let ctx = Wfa.Ctx.make ~procs:3 ~pid () in
      let sh = Snap.attach snap ctx in
      let nh = Naive.attach naive ctx in
      match pid with
      | 0 ->
          (* primary: commit entries one at a time *)
          for i = 1 to rounds do
            Snap.update sh i;
            Naive.update nh i
          done;
          { false_alarms = 0; observations = 0 }
      | 1 ->
          (* replica: repeatedly read committed, apply up to it *)
          for _ = 1 to rounds do
            let view = Snap.snapshot sh in
            Snap.update sh view.(0);
            let nview = Naive.snapshot nh in
            Naive.update nh nview.(0)
          done;
          { false_alarms = 0; observations = 0 }
      | _ ->
          (* monitor: check applied <= committed *)
          let alarms = ref 0 in
          let obs = ref 0 in
          for _ = 1 to rounds do
            let view =
              if use_atomic then Snap.snapshot sh else Naive.snapshot nh
            in
            incr obs;
            let committed = view.(0) and applied = view.(1) in
            if applied > committed then incr alarms
          done;
          { false_alarms = !alarms; observations = !obs }
  in
  let d = Wfa.Pram.Driver.create ~procs:3 program in
  (* A bursty schedule lets the replica race ahead of the monitor's
     half-finished collect. *)
  Wfa.Pram.Scheduler.run ~max_steps:10_000_000
    (Wfa.Workload.scheduler_of (Wfa.Workload.Bursty 3))
    d;
  for p = 0 to 2 do
    if Wfa.Pram.Driver.runnable d p then ignore (Wfa.Pram.Driver.run_solo d p)
  done;
  match Wfa.Pram.Driver.result d 2 with
  | Some v -> v
  | None -> failwith "monitor did not finish"

let () =
  let rounds = 300 in
  let naive = run ~use_atomic:false ~rounds in
  Printf.printf
    "naive collect monitor:  %d false alarms in %d observations\n"
    naive.false_alarms naive.observations;
  let atomic = run ~use_atomic:true ~rounds in
  Printf.printf
    "atomic snapshot monitor: %d false alarms in %d observations\n"
    atomic.false_alarms atomic.observations;
  assert (atomic.false_alarms = 0);
  if naive.false_alarms = 0 then
    print_endline
      "(the naive monitor got lucky under this schedule — rerun with other \
       seeds and it will misfire)"
  else
    Printf.printf
      "the naive monitor misfired %d times; the invariant never actually \
       broke\n"
      naive.false_alarms;
  print_endline "replication_audit: ok"
