(* Native-backend tests: the same algorithms on real OCaml domains with
   Atomic registers.  Histories are recorded with the ticketed
   Spec.History.Recorder and checked by the same linearizability oracle as
   the simulator tests — demonstrating that nothing here is a simulator
   artifact.

   Caveat on methodology: the ticket is taken at the invocation /
   response boundaries, so the recorded order is a sound real-time
   approximation (an operation's ticket interval contains its actual
   span).  A history accepted by the checker under this order is
   genuinely linearizable; rejection would be a true violation. *)

let procs = 3
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ctx pid = Runtime.Ctx.make ~procs ~pid ()

module C = Universal.Direct.Counter (Pram.Native.Versioned)
module G = Universal.Direct.Gset (Pram.Native.Versioned)
module MR = Universal.Direct.Max_register (Pram.Native.Versioned)
module Arr = Snapshot.Snapshot_array.Make (Snapshot.Slot_value.Int) (Pram.Native.Versioned)
module AB = Snapshot.Afek_bounded.Make (Snapshot.Slot_value.Int) (Pram.Native.Mem)
module AA = Agreement.Approx_agreement.Make (Pram.Native.Mem)
module Check_counter = Lincheck.Make (Spec.Counter_spec)
module Check_maxreg = Lincheck.Make (Spec.Max_register_spec)
module Arr_spec =
  Snapshot.Array_spec.Make
    (Snapshot.Slot_value.Int)
    (struct
      let procs = 3
    end)

module Check_arr = Lincheck.Make (Arr_spec)

(* run one round of a history-producing parallel workload and check it *)
let rounds = 30

let test_counter_linearizable_on_domains () =
  for _ = 1 to rounds do
    let recorder = Spec.History.Recorder.create () in
    let t = C.create ~procs in
    let _ =
      Pram.Native.run_parallel ~procs (fun pid ->
          let h = C.attach t (ctx pid) in
          ignore
            (Spec.History.Recorder.record recorder ~pid
               (Spec.Counter_spec.Inc (pid + 1)) (fun () ->
                 C.inc h (pid + 1);
                 Spec.Counter_spec.Unit));
          ignore
            (Spec.History.Recorder.record recorder ~pid
               Spec.Counter_spec.Read (fun () ->
                 Spec.Counter_spec.Value (C.read h))))
    in
    check_bool "counter history linearizable" true
      (Check_counter.is_linearizable
         (Spec.History.Recorder.events recorder));
    check_int "final value" 6 (C.read (C.attach t (ctx 0)))
  done

let test_snapshot_array_linearizable_on_domains () =
  for _ = 1 to rounds do
    let recorder = Spec.History.Recorder.create () in
    let t = Arr.create ~variant:Snapshot.Scan.Optimized ~procs in
    let _ =
      Pram.Native.run_parallel ~procs (fun pid ->
          let h = Arr.attach t (ctx pid) in
          ignore
            (Spec.History.Recorder.record recorder ~pid
               (`Update (pid, pid + 10)) (fun () ->
                 Arr.update h (pid + 10);
                 `Unit));
          ignore
            (Spec.History.Recorder.record recorder ~pid `Snapshot
               (fun () -> `View (Arr.snapshot h))))
    in
    check_bool "snapshot history linearizable" true
      (Check_arr.is_linearizable
         (Spec.History.Recorder.events recorder))
  done

let test_bounded_afek_linearizable_on_domains () =
  for _ = 1 to rounds do
    let recorder = Spec.History.Recorder.create () in
    let t = AB.create ~procs in
    let _ =
      Pram.Native.run_parallel ~procs (fun pid ->
          let h = AB.attach t (ctx pid) in
          ignore
            (Spec.History.Recorder.record recorder ~pid
               (`Update (pid, pid + 10)) (fun () ->
                 AB.update h (pid + 10);
                 `Unit));
          ignore
            (Spec.History.Recorder.record recorder ~pid `Snapshot
               (fun () -> `View (AB.snapshot h))))
    in
    check_bool "bounded afek history linearizable" true
      (Check_arr.is_linearizable
         (Spec.History.Recorder.events recorder))
  done

let test_max_register_on_domains () =
  for _ = 1 to rounds do
    let recorder = Spec.History.Recorder.create () in
    let t = MR.create ~procs in
    let _ =
      Pram.Native.run_parallel ~procs (fun pid ->
          let h = MR.attach t (ctx pid) in
          ignore
            (Spec.History.Recorder.record recorder ~pid
               (Spec.Max_register_spec.Write_max ((pid + 1) * 5)) (fun () ->
                 MR.write_max h ((pid + 1) * 5);
                 Spec.Max_register_spec.Unit));
          ignore
            (Spec.History.Recorder.record recorder ~pid
               Spec.Max_register_spec.Read_max (fun () ->
                 Spec.Max_register_spec.Value (MR.read_max h))))
    in
    check_bool "max register history linearizable" true
      (Check_maxreg.is_linearizable
         (Spec.History.Recorder.events recorder));
    check_int "final max" 15 (MR.read_max (MR.attach t (ctx 0)))
  done

let test_gset_on_domains () =
  let t = G.create ~procs in
  let _ =
    Pram.Native.run_parallel ~procs (fun pid ->
        let h = G.attach t (ctx pid) in
        for i = 0 to 9 do
          G.add h ((pid * 10) + i)
        done)
  in
  check_int "all elements present" 30
    (List.length (G.members (G.attach t (ctx 0))))

let test_agreement_on_domains () =
  for round = 1 to rounds do
    let epsilon = 0.25 in
    let inputs = [| 0.0; float_of_int round; float_of_int round /. 2.0 |] in
    let t = AA.create ~procs ~epsilon in
    let outputs =
      Pram.Native.run_parallel ~procs (fun pid ->
          let h = AA.attach t (ctx pid) in
          AA.input h inputs.(pid);
          AA.output h)
    in
    let lo = List.fold_left Float.min infinity outputs in
    let hi = List.fold_left Float.max neg_infinity outputs in
    check_bool "epsilon agreement on domains" true (hi -. lo < epsilon);
    check_bool "validity on domains" true
      (List.for_all (fun v -> v >= 0.0 && v <= float_of_int round) outputs)
  done

let test_counter_torture () =
  (* heavier contention: many increments per domain, exact total *)
  let t = C.create ~procs in
  let per = 2_000 in
  let _ =
    Pram.Native.run_parallel ~procs (fun pid ->
        let h = C.attach t (ctx pid) in
        for _ = 1 to per do
          C.inc h 1
        done)
  in
  check_int "no lost updates" (procs * per) (C.read (C.attach t (ctx 0)))

let () =
  Alcotest.run "native"
    [
      ( "domains",
        [
          Alcotest.test_case "counter linearizable" `Slow
            test_counter_linearizable_on_domains;
          Alcotest.test_case "snapshot array linearizable" `Slow
            test_snapshot_array_linearizable_on_domains;
          Alcotest.test_case "bounded afek linearizable" `Slow
            test_bounded_afek_linearizable_on_domains;
          Alcotest.test_case "max register linearizable" `Slow
            test_max_register_on_domains;
          Alcotest.test_case "gset" `Quick test_gset_on_domains;
          Alcotest.test_case "approximate agreement" `Slow
            test_agreement_on_domains;
          Alcotest.test_case "counter torture" `Slow test_counter_torture;
        ] );
    ]
