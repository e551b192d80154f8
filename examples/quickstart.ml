(* Quickstart: a wait-free shared counter, two ways.

     dune exec examples/quickstart.exe

   1. On real parallelism: the Direct counter (per-process monotone
      totals + the Section 6 atomic scan) shared by OCaml domains.  No
      locks, no compare-and-swap: only atomic reads and writes — yet
      every increment is counted and reads are linearizable.

   2. Under the deterministic simulator: the same code (it is a functor
      over the memory backend) scheduled adversarially, with one process
      crashed mid-operation, demonstrating wait-freedom: survivors finish
      regardless. *)

let native_demo () =
  print_endline "== native domains ==";
  let procs = 4 in
  let counter = Wfa.Native.Counter.create ~procs in
  let increments_per_proc = 1000 in
  let results =
    Wfa.Runtime.run_domains ~procs (fun pid ->
        (* each process mints its session handle from its own context *)
        let h =
          Wfa.Native.Counter.attach counter (Wfa.Ctx.make ~procs ~pid ())
        in
        for _ = 1 to increments_per_proc do
          Wfa.Native.Counter.inc h 1
        done;
        Wfa.Native.Counter.read h)
  in
  List.iteri
    (fun pid v -> Printf.printf "  process %d finished; saw counter >= %d\n" pid v)
    results;
  let final =
    Wfa.Native.Counter.read
      (Wfa.Native.Counter.attach counter (Wfa.Ctx.make ~procs ~pid:0 ()))
  in
  Printf.printf "  final value: %d (expected %d)\n" final
    (procs * increments_per_proc);
  assert (final = procs * increments_per_proc)

let simulator_demo () =
  print_endline "== deterministic simulator, with a crash ==";
  let procs = 3 in
  let program () =
    let counter = Wfa.Sim.Counter.create ~procs in
    fun pid ->
      let h = Wfa.Sim.Counter.attach counter (Wfa.Ctx.make ~procs ~pid ()) in
      Wfa.Sim.Counter.inc h (10 * (pid + 1));
      Wfa.Sim.Counter.read h
  in
  let d = Wfa.Pram.Driver.create ~procs program in
  (* let everyone get half-way, then crash process 1 forever *)
  let sched = Wfa.Pram.Scheduler.random ~seed:7 () in
  for _ = 1 to 10 do
    match sched d with
    | Wfa.Pram.Scheduler.Step p -> Wfa.Pram.Driver.step d p
    | _ -> ()
  done;
  Wfa.Pram.Driver.crash d 1;
  print_endline "  crashed process 1 mid-operation";
  (* wait-freedom: the others finish on their own *)
  List.iter
    (fun p ->
      if Wfa.Pram.Driver.runnable d p then
        ignore (Wfa.Pram.Driver.run_solo d p))
    [ 0; 2 ];
  List.iter
    (fun p ->
      match Wfa.Pram.Driver.result d p with
      | Some v -> Printf.printf "  process %d read %d (steps: %d)\n" p v (Wfa.Pram.Driver.steps d p)
      | None -> Printf.printf "  process %d crashed\n" p)
    [ 0; 1; 2 ]

let universal_demo () =
  print_endline "== the Figure 4 universal construction (with reset) ==";
  (* reset does not commute with inc, so the Direct counter cannot offer
     it; the universal construction handles it because reset OVERWRITES
     every other operation (Section 5.1). *)
  let module U =
    Wfa.Universal.Construction.Make (Wfa.Spec.Counter_spec)
      (Wfa.Pram.Memory.Direct_v)
  in
  let t = U.create ~procs:2 () in
  let h0 = U.attach t (Wfa.Ctx.make ~procs:2 ~pid:0 ()) in
  let h1 = U.attach t (Wfa.Ctx.make ~procs:2 ~pid:1 ()) in
  let open Wfa.Spec.Counter_spec in
  ignore (U.execute h0 (Inc 5));
  ignore (U.execute h1 (Dec 2));
  (match U.execute h0 Read with
  | Value v -> Printf.printf "  after inc 5, dec 2: %d\n" v
  | Unit -> ());
  ignore (U.execute h1 (Reset 100));
  (match U.execute h0 Read with
  | Value v -> Printf.printf "  after reset 100: %d\n" v
  | Unit -> ())

let () =
  native_demo ();
  simulator_demo ();
  universal_demo ();
  print_endline "quickstart: ok"
