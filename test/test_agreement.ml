(* Tests for approximate agreement (Figures 1-2), Theorem 5's bound, and
   the Lemma 6 adversary. *)

module AA = Agreement.Approx_agreement.Make (Pram.Memory.Sim)
module AA_d = Agreement.Approx_agreement.Make (Pram.Memory.Direct)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ctx ~procs pid = Runtime.Ctx.make ~procs ~pid ()


(* --- sequential sanity --------------------------------------------------- *)

let test_solo_returns_input () =
  let t = AA_d.create ~procs:2 ~epsilon:0.5 in
  let h0 = AA_d.attach t (ctx ~procs:2 0) in
  AA_d.input h0 3.25;
  let v = AA_d.output h0 in
  check_bool "solo output equals input" true (Float.equal v 3.25)

let test_sequential_agreement () =
  let t = AA_d.create ~procs:2 ~epsilon:0.5 in
  let h0 = AA_d.attach t (ctx ~procs:2 0) in
  let h1 = AA_d.attach t (ctx ~procs:2 1) in
  AA_d.input h0 0.0;
  AA_d.input h1 10.0;
  let v0 = AA_d.output h0 in
  let v1 = AA_d.output h1 in
  check_bool "within epsilon" true (Float.abs (v0 -. v1) < 0.5);
  check_bool "within range" true (v0 >= 0.0 && v0 <= 10.0 && v1 >= 0.0 && v1 <= 10.0)

let test_input_idempotent () =
  let t = AA_d.create ~procs:2 ~epsilon:0.5 in
  let h0 = AA_d.attach t (ctx ~procs:2 0) in
  AA_d.input h0 1.0;
  AA_d.input h0 99.0;
  check_bool "first input wins" true (Float.equal (AA_d.output h0) 1.0)

let test_output_before_input_rejected () =
  let t = AA_d.create ~procs:2 ~epsilon:0.5 in
  let h0 = AA_d.attach t (ctx ~procs:2 0) in
  check_bool "raises" true
    (try ignore (AA_d.output h0); false with Invalid_argument _ -> true)

(* --- concurrent correctness under random schedules (Figure 1's spec) ---- *)

let agreement_program ~procs ~epsilon ~inputs () =
  let t = AA.create ~procs ~epsilon in
  fun pid ->
    let h = AA.attach t (ctx ~procs pid) in
    AA.input h inputs.(pid);
    AA.output h

let run_random ~procs ~epsilon ~inputs ~seed ~crash_prob =
  let d =
    Pram.Driver.create ~procs (agreement_program ~procs ~epsilon ~inputs)
  in
  Pram.Scheduler.run
    (Pram.Scheduler.random ~crash_prob ~min_alive:1 ~seed ())
    d;
  (* survivors finish solo *)
  for p = 0 to procs - 1 do
    if Pram.Driver.runnable d p then ignore (Pram.Driver.run_solo d p)
  done;
  d

let qcheck_validity_and_agreement =
  QCheck.Test.make
    ~name:"Figure 1 spec: validity and epsilon-agreement under random \
           schedules" ~count:300
    QCheck.(
      triple (int_bound 1_000_000)
        (list_of_size Gen.(return 3) (float_bound_inclusive 100.0))
        bool)
    (fun (seed, inputs, crash) ->
      let inputs = Array.of_list inputs in
      let procs = Array.length inputs in
      let epsilon = 0.37 in
      let d =
        run_random ~procs ~epsilon ~inputs ~seed
          ~crash_prob:(if crash then 0.05 else 0.0)
      in
      let outputs =
        List.filter_map (Pram.Driver.result d) (List.init procs Fun.id)
      in
      let lo = Array.fold_left Float.min infinity inputs in
      let hi = Array.fold_left Float.max neg_infinity inputs in
      let valid = List.for_all (fun v -> v >= lo && v <= hi) outputs in
      let spread =
        match outputs with
        | [] -> 0.0
        | x :: rest ->
            List.fold_left Float.max x rest -. List.fold_left Float.min x rest
      in
      valid && spread < epsilon)

(* --- Theorem 5: the step bound ------------------------------------------ *)

let qcheck_step_bound =
  QCheck.Test.make ~name:"Theorem 5: steps within the closed-form bound"
    ~count:200
    QCheck.(pair (int_bound 1_000_000) (int_bound 2))
    (fun (seed, scale) ->
      let procs = 2 + (seed mod 2) in
      let delta = Float.pow 10.0 (float_of_int scale) in
      let epsilon = 0.5 in
      let inputs = Array.init procs (fun p -> if p = 0 then 0.0 else delta) in
      let d = run_random ~procs ~epsilon ~inputs ~seed ~crash_prob:0.0 in
      let bound =
        Agreement.Approx_agreement.step_bound ~procs ~delta ~epsilon
      in
      List.for_all
        (fun p -> float_of_int (Pram.Driver.steps d p) <= bound)
        (List.init procs Fun.id))

(* --- wait-freedom: completion after everyone else crashes ---------------- *)

let qcheck_wait_free =
  QCheck.Test.make ~name:"output completes solo after crashes" ~count:200
    QCheck.(pair (int_bound 1_000_000) (int_bound 100))
    (fun (seed, prefix_len) ->
      let procs = 3 in
      let inputs = [| 0.0; 50.0; 100.0 |] in
      let d =
        Pram.Driver.create ~procs
          (agreement_program ~procs ~epsilon:1.0 ~inputs)
      in
      let sched = Pram.Scheduler.random ~seed () in
      for _ = 1 to prefix_len do
        match sched d with
        | Pram.Scheduler.Step p -> Pram.Driver.step d p
        | _ -> ()
      done;
      Pram.Driver.crash d 1;
      Pram.Driver.crash d 2;
      Pram.Driver.run_solo ~max_steps:10_000 d 0)

(* --- Lemma 6: the adversary forces the log3 lower bound ------------------ *)

let test_adversary_forces_lower_bound () =
  List.iter
    (fun k ->
      let row = Agreement.Hierarchy.theorem7_row k in
      check_bool
        (Printf.sprintf "k=%d: forced (%d) >= lower bound (%d)" k
           row.Agreement.Hierarchy.forced row.Agreement.Hierarchy.lower_bound)
        true
        (row.Agreement.Hierarchy.forced >= row.Agreement.Hierarchy.lower_bound);
      check_bool
        (Printf.sprintf "k=%d: forced within upper bound" k)
        true
        (float_of_int row.Agreement.Hierarchy.forced
        <= row.Agreement.Hierarchy.upper_bound);
      check_bool
        (Printf.sprintf "k=%d: outputs still correct under attack" k)
        true row.Agreement.Hierarchy.agreement_ok)
    [ 1; 2; 3; 4 ]

let test_adversary_bound_counts_powers_of_three () =
  (* 1/3^k rounds, so delta/eps falls just short of 3^k
     (242.99999999999997 at k = 5) *)
  for k = 1 to 12 do
    check_int
      (Printf.sprintf "floor at 3^%d" k)
      k
      (Agreement.Approx_agreement.adversary_bound ~delta:1.0
         ~epsilon:(1.0 /. Float.pow 3.0 (float_of_int k)))
  done;
  List.iter
    (fun (ratio, floor) ->
      check_int
        (Printf.sprintf "floor at %g" ratio)
        floor
        (Agreement.Approx_agreement.adversary_bound ~delta:ratio ~epsilon:1.0))
    [ (10.0, 2); (100.0, 4); (1000.0, 6) ]

let test_hierarchy_strictly_increasing () =
  let rows = List.map Agreement.Hierarchy.theorem7_row [ 1; 3; 5 ] in
  let forced = List.map (fun r -> r.Agreement.Hierarchy.forced) rows in
  match forced with
  | [ a; b; c ] ->
      check_bool "forced steps increase with k" true (a < b && b < c)
  | _ -> Alcotest.fail "expected three rows"

let test_theorem8_unbounded_growth () =
  let rows =
    List.map (fun d -> Agreement.Hierarchy.theorem8_row ~delta:d)
      [ 10.0; 1000.0; 100000.0 ]
  in
  let forced = List.map (fun r -> r.Agreement.Hierarchy.forced) rows in
  match forced with
  | [ a; b; c ] ->
      check_bool "forced steps grow with delta" true (a < b && b < c)
  | _ -> Alcotest.fail "expected three rows"

let test_adversary_against_trivial_protocol () =
  (* A protocol that ignores others and returns its input is not a correct
     approximate-agreement implementation, but the adversary must still
     terminate against it (processes finish immediately). *)
  let proto =
    {
      Agreement.Adversary.procs = 2;
      epsilon = 0.1;
      setup =
        (fun () ->
          let r = Pram.Memory.Sim.create ~name:"noop" 0 in
          fun pid ->
            Pram.Memory.Sim.write r pid;
            float_of_int pid);
    }
  in
  let o = Agreement.Adversary.run_two_process proto in
  check_bool "terminates" true (Agreement.Adversary.max_forced o >= 0)

let test_adversary_exposes_cheater () =
  (* The lower-bound laboratory doubles as a conformance checker: an
     implementation that skips the convergence protocol (here: average
     the two inputs once after a single exchange, without rounds) is
     faster than Lemma 6 allows — and therefore WRONG.  The adversary
     must produce an execution whose outputs violate epsilon-agreement. *)
  let epsilon = 1.0 /. 81.0 in
  let proto =
    {
      Agreement.Adversary.procs = 2;
      epsilon;
      setup =
        (fun () ->
          let slots =
            Array.init 2 (fun i ->
                Pram.Memory.Sim.create ~name:(Printf.sprintf "cheat%d" i) None)
          in
          fun pid ->
            let my = if pid = 0 then 0.0 else 1.0 in
            Pram.Memory.Sim.write slots.(pid) (Some my);
            (* one exchange, then "agree" on the midpoint of what we saw *)
            match Pram.Memory.Sim.read slots.(1 - pid) with
            | Some other -> (my +. other) /. 2.0
            | None -> my);
    }
  in
  let o = Agreement.Adversary.run_two_process proto in
  let ok =
    Agreement.Hierarchy.check_outputs ~epsilon ~lo:0.0 ~hi:1.0
      o.Agreement.Adversary.outputs
  in
  check_bool "the cheater is caught violating epsilon-agreement" false ok

let test_greedy_three_processes_force_more () =
  (* Hoest-Shavit: two processes can only be forced ~log3(1/eps) rounds,
     three processes ~log2(1/eps).  The greedy adversary should force at
     least as many steps with 3 processes as the 2-process bound. *)
  let epsilon = 1.0 /. 27.0 in
  let forced2, _ = Agreement.Hierarchy.greedy_forced ~procs:2 ~epsilon in
  let forced3, _ = Agreement.Hierarchy.greedy_forced ~procs:3 ~epsilon in
  check_bool
    (Printf.sprintf "3 procs (%d) force at least as much as 2 (%d)" forced3
       forced2)
    true
    (forced3 >= forced2)

let () =
  Alcotest.run "agreement"
    [
      ( "sequential",
        [
          Alcotest.test_case "solo returns input" `Quick test_solo_returns_input;
          Alcotest.test_case "sequential agreement" `Quick
            test_sequential_agreement;
          Alcotest.test_case "input idempotent" `Quick test_input_idempotent;
          Alcotest.test_case "output before input rejected" `Quick
            test_output_before_input_rejected;
        ] );
      ( "concurrent",
        [
          QCheck_alcotest.to_alcotest qcheck_validity_and_agreement;
          QCheck_alcotest.to_alcotest qcheck_step_bound;
          QCheck_alcotest.to_alcotest qcheck_wait_free;
        ] );
      ( "adversary",
        [
          Alcotest.test_case "Lemma 6 lower bound" `Slow
            test_adversary_forces_lower_bound;
          Alcotest.test_case "Theorem 7 hierarchy increases" `Slow
            test_hierarchy_strictly_increasing;
          Alcotest.test_case "Theorem 8 unbounded growth" `Slow
            test_theorem8_unbounded_growth;
          Alcotest.test_case "adversary vs trivial protocol" `Quick
            test_adversary_against_trivial_protocol;
          Alcotest.test_case "adversary exposes a cheating implementation"
            `Quick test_adversary_exposes_cheater;
          Alcotest.test_case "three processes force more" `Slow
            test_greedy_three_processes_force_more;
          Alcotest.test_case "Lemma 6 floor counts powers of 3" `Quick
            test_adversary_bound_counts_powers_of_three;
        ] );
    ]
