(* Randomized consensus from a wait-free shared counter.

     dune exec examples/coin_consensus.exe

   Deterministic wait-free consensus is impossible from reads and writes
   (the impossibility the paper builds on, [23, 26]) — but RANDOMIZED
   wait-free consensus is possible, and Section 5.1 cites exactly this as
   an application of the shared counter: "such a shared counter appears,
   for example, in randomized shared-memory algorithms [6]".

   This example drives the [Consensus] library: a weak shared coin
   (random walk on the wait-free counter) inside a round-based protocol
   over grow-only-set boards.  We run it twice:

   - in the deterministic simulator, under a seeded adversarial-ish
     schedule with one process crashed mid-protocol;
   - on real OCaml domains. *)

module RC_sim = Consensus.Randomized_consensus.Make (Pram.Memory.Sim_v)
module RC_native = Consensus.Randomized_consensus.Make (Pram.Native.Versioned)

let simulator_demo () =
  print_endline "== simulator, split inputs, one crash ==";
  let procs = 4 in
  let inputs = [| false; true; true; false |] in
  Array.iteri
    (fun p v -> Printf.printf "  process %d proposes %b\n" p v)
    inputs;
  let program () =
    let t = RC_sim.create ~procs ~max_rounds:64 in
    fun pid ->
      (* the context's seed drives the coin: deterministic per (seed, pid) *)
      let h = RC_sim.attach t (Runtime.Ctx.make ~seed:2026 ~procs ~pid ()) in
      RC_sim.propose h inputs.(pid)
  in
  let d = Pram.Driver.create ~procs program in
  let sched = Wfa.Workload.scheduler_of (Wfa.Workload.Bursty 11) in
  for _ = 1 to 60 do
    match sched d with
    | Pram.Scheduler.Step p -> Pram.Driver.step d p
    | _ -> ()
  done;
  Pram.Driver.crash d 3;
  print_endline "  process 3 crashed mid-protocol";
  for p = 0 to procs - 1 do
    if Pram.Driver.runnable d p then
      ignore (Pram.Driver.run_solo ~max_steps:1_000_000 d p)
  done;
  let decisions =
    List.filter_map
      (fun p ->
        match Pram.Driver.result d p with
        | Some v ->
            Printf.printf "  process %d decides %b (%d shared-memory steps)\n"
              p v (Pram.Driver.steps d p);
            Some v
        | None -> None)
      (List.init procs Fun.id)
  in
  match decisions with
  | v :: rest ->
      assert (List.for_all (Bool.equal v) rest);
      assert (Array.exists (Bool.equal v) inputs);
      Printf.printf "  agreement on %b despite the crash\n" v
  | [] -> failwith "nobody decided"

let native_demo () =
  print_endline "== native domains ==";
  let procs = 4 in
  let inputs = [| true; false; true; false |] in
  let t = RC_native.create ~procs ~max_rounds:64 in
  let decisions =
    Runtime.run_domains ~procs (fun pid ->
        let h = RC_native.attach t (Runtime.Ctx.make ~seed:7 ~procs ~pid ()) in
        RC_native.propose h inputs.(pid))
  in
  List.iteri (fun p v -> Printf.printf "  domain %d decides %b\n" p v) decisions;
  match decisions with
  | v :: rest ->
      assert (List.for_all (Bool.equal v) rest);
      Printf.printf "  unanimous: %b\n" v
  | [] -> ()

let () =
  simulator_demo ();
  native_demo ();
  print_endline "coin_consensus: ok"
