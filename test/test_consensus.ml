(* Tests for randomized consensus (the paper's reference [6] application):
   agreement, validity, probabilistic termination — under random
   schedules, with crashes, and on real domains. *)

module RC = Consensus.Randomized_consensus.Make (Pram.Memory.Sim_v)
module RC_native = Consensus.Randomized_consensus.Make (Pram.Native.Versioned)
module Coin = Consensus.Shared_coin.Make (Pram.Memory.Sim_v)

let check_bool = Alcotest.(check bool)

let run_consensus ~procs ~inputs ~seed ~crash_prob =
  let program () =
    let t = RC.create ~procs ~max_rounds:64 in
    fun pid ->
      let h = RC.attach t (Runtime.Ctx.make ~seed ~procs ~pid ()) in
      RC.propose h inputs.(pid)
  in
  let d = Pram.Driver.create ~procs program in
  Pram.Scheduler.run ~max_steps:10_000_000
    (Pram.Scheduler.random ~crash_prob ~min_alive:1 ~seed ())
    d;
  for p = 0 to procs - 1 do
    if Pram.Driver.runnable d p then
      ignore (Pram.Driver.run_solo ~max_steps:2_000_000 d p)
  done;
  List.filter_map
    (fun p ->
      Option.map (fun v -> (p, v)) (Pram.Driver.result d p))
    (List.init procs Fun.id)

let qcheck_agreement_validity =
  QCheck.Test.make ~name:"consensus: agreement + validity" ~count:200
    QCheck.(
      quad (int_bound 1_000_000) (int_range 2 4)
        (list_of_size Gen.(return 4) bool)
        bool)
    (fun (seed, procs, inputs, crash) ->
      let inputs = Array.of_list inputs in
      let decisions =
        run_consensus ~procs ~inputs ~seed
          ~crash_prob:(if crash then 0.02 else 0.0)
      in
      (* agreement: all deciders agree *)
      let values = List.map snd decisions in
      let agreement =
        match values with
        | [] -> true
        | v :: rest -> List.for_all (Bool.equal v) rest
      in
      (* validity: the decision is someone's input *)
      let validity =
        List.for_all
          (fun v -> Array.exists (Bool.equal v) (Array.sub inputs 0 procs))
          values
      in
      agreement && validity)

let qcheck_unanimous_decides_input =
  (* with unanimous inputs no coin flip can occur and the (deterministic,
     max_rounds 2) protocol must decide the common value — under any of
     many random schedules including crashes.  (The state space of even
     one round is ~10^13 interleavings, so this is sampled rather than
     exhaustive: each scan-based board operation is 12 steps.) *)
  QCheck.Test.make ~name:"unanimous inputs decide the input" ~count:300
    QCheck.(triple (int_bound 1_000_000) bool bool)
    (fun (seed, input, crash) ->
      let procs = 3 in
      let inputs = Array.make procs input in
      let decisions =
        run_consensus ~procs ~inputs ~seed
          ~crash_prob:(if crash then 0.02 else 0.0)
      in
      decisions <> [] && List.for_all (fun (_, v) -> v = input) decisions)

let test_solo_decides_own_input () =
  let t = RC.create ~procs:3 ~max_rounds:8 in
  let module RC_d = Consensus.Randomized_consensus.Make (Pram.Memory.Direct_v) in
  let t2 = RC_d.create ~procs:3 ~max_rounds:8 in
  ignore t;
  let h0 = RC_d.attach t2 (Runtime.Ctx.make ~seed:1 ~procs:3 ~pid:0 ()) in
  let h1 = RC_d.attach t2 (Runtime.Ctx.make ~seed:1 ~procs:3 ~pid:1 ()) in
  check_bool "solo false" false (RC_d.propose h0 false);
  (* a second process must agree with the first decision *)
  check_bool "late joiner agrees" false (RC_d.propose h1 true)

let test_consensus_on_domains () =
  for round = 1 to 20 do
    let procs = 3 in
    let t = RC_native.create ~procs ~max_rounds:64 in
    let inputs = [| round mod 2 = 0; true; false |] in
    let decisions =
      Runtime.run_domains ~procs (fun pid ->
          let h =
            RC_native.attach t (Runtime.Ctx.make ~seed:round ~procs ~pid ())
          in
          RC_native.propose h inputs.(pid))
    in
    match decisions with
    | v :: rest ->
        check_bool "domains agreement" true (List.for_all (Bool.equal v) rest);
        check_bool "domains validity" true (Array.exists (Bool.equal v) inputs)
    | [] -> Alcotest.fail "no decisions"
  done

let qcheck_shared_coin_terminates =
  QCheck.Test.make ~name:"shared coin terminates under random schedules"
    ~count:100
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let procs = 3 in
      let program () =
        let c = Coin.create ~procs in
        fun pid ->
          let h = Coin.attach c (Runtime.Ctx.make ~seed ~procs ~pid ()) in
          Coin.flip h
      in
      let d = Pram.Driver.create ~procs program in
      Pram.Scheduler.run ~max_steps:5_000_000
        (Pram.Scheduler.random ~seed ())
        d;
      List.for_all
        (fun p -> Pram.Driver.result d p <> None)
        (List.init procs Fun.id))

let () =
  Alcotest.run "consensus"
    [
      ( "randomized consensus",
        [
          QCheck_alcotest.to_alcotest qcheck_agreement_validity;
          QCheck_alcotest.to_alcotest qcheck_unanimous_decides_input;
          Alcotest.test_case "solo + late joiner" `Quick
            test_solo_decides_own_input;
          Alcotest.test_case "on domains" `Slow test_consensus_on_domains;
          QCheck_alcotest.to_alcotest qcheck_shared_coin_terminates;
        ] );
    ]
