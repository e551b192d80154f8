(* The experiment harness: every experiment's stage runs on its quick
   sweep and passes its own gates — keeping the paper-reproduction
   guarantees themselves under test, so a regression in any algorithm or
   bound shows up here as well as in the unit suites — and each claim
   gate rejects a row that breaks its claim. *)

module J = Experiments.Bench_json

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_failures = Alcotest.(check (list string))

(* The names of [e]'s gates that fail on [rows]. *)
let failing e rows =
  List.filter_map
    (fun (name, errs) -> if errs = [] then None else Some name)
    (Experiments.verdicts e rows)

(* [rows] with the value of [bench]'s [metric] rows (at [procs], if
   given) replaced by [value]. *)
let set ?procs ~bench metric value rows =
  List.map
    (fun (r : J.row) ->
      if
        r.bench = bench && r.metric = metric
        && Option.fold ~none:true ~some:(( = ) r.procs) procs
      then { r with value }
      else r)
    rows

(* Per experiment: quick-row mutations that each break one claim, with
   the gate that must reject it. *)
let mutations =
  [
    ( "E1",
      [
        ( "E1 worst-case steps within Theorem 5's bound",
          set ~procs:3 ~bench:"agreement_r10" "steps_max" 1000.0 );
      ] );
    ( "E2",
      [
        ( "E2 forced steps >= the Lemma 6 floor",
          set ~bench:"theorem7_k3" "forced" 2.0 );
        ( "E2 Lemma 6 floor = k at delta/eps = 3^k",
          set ~bench:"theorem7_k5" "floor" 4.0 );
      ] );
    ( "E3",
      [
        ("E3 forced steps > k", set ~bench:"theorem7_k2" "forced" 2.0);
        ( "E3 forced steps <= Theorem 5's K",
          set ~bench:"theorem7_k1" "forced" 30.0 );
        ( "E3 attacked executions keep the Figure 1 spec",
          set ~bench:"theorem7_k4" "violations" 1.0 );
      ] );
    ( "E4",
      [
        ( "E4 forced steps rise strictly with delta",
          set ~bench:"theorem8_d1e3" "forced" 37.0 );
      ] );
    ( "E5",
      [
        ( "scan_opt* = cost_formula",
          set ~procs:4 ~bench:"scan_opt_uncontended" "reads" 14.0 );
      ] );
    ( "E6",
      [
        ( "universal_counter_solo* = cost_formula",
          set ~procs:6 ~bench:"universal_counter_solo" "writes" 2.0 );
      ] );
    ( "E7",
      [
        ( "E7 wait-free snapshots finish under contention, the double \
           collect starves",
          set ~bench:"snapshot_double_collect" "contended_steps" 12.0 );
        ( "E7 the checker rejects the naive collect alone",
          set ~bench:"snapshot_naive_collect" "violations" 0.0 );
      ] );
    ( "E8",
      [
        ( "E8 three processes are forced to more steps than two",
          set ~procs:3 ~bench:"greedy_k3" "forced" 27.0 );
        ( "E8 forced steps rise strictly with k at n = 2 and 3",
          set ~procs:2 ~bench:"greedy_k3" "forced" 22.0 );
      ] );
    ( "E9",
      [
        ( "direct_counter_solo* = cost_formula",
          set ~procs:4 ~bench:"direct_counter_solo" "reads" 12.0 );
      ] );
    ( "E10",
      [
        ( "E10 classifier steps below scan steps",
          set ~procs:8 ~bench:"lattice_agreement_classifier" "reads" 69.0 );
      ] );
    ( "E11",
      [
        ( "E11 worst gap <= eps with ceil(log_base(delta/eps)) layers",
          set ~procs:2 ~bench:"iis_k2" "worst_gap" 0.2 );
      ] );
    ( "E12",
      [
        ( "E12 DPOR explores at most the naive schedules",
          set ~bench:"dpor_vs_naive_scan" "dpor_explored" 20000.0 );
        ( "E12 both ways reach the program's verdict",
          set ~bench:"dpor_vs_naive_lost_update" "dpor_violations" 0.0 );
      ] );
  ]

let test_experiment id =
  Alcotest.test_case id `Slow (fun () ->
      match Experiments.find id with
      | None -> Alcotest.fail ("unknown experiment " ^ id)
      | Some e ->
          let rows = e.Experiments.rows ~quick:true in
          check_bool (id ^ " produced rows") true (rows <> []);
          check_failures (id ^ " gates hold") [] (failing e rows);
          (* a bench file keeps the rows exactly, so the gates hold on
             them too *)
          let reread = J.rows_of_string (J.to_json rows) in
          check_bool (id ^ " rows survive a JSON round trip exactly") true
            (reread = Ok rows);
          check_failures (id ^ " gates hold after a JSON round trip") []
            (failing e (Result.get_ok reread));
          (* coverage: dropping the rows cannot pass the claims
             vacuously *)
          check_bool (id ^ " gates need rows") true (failing e [] <> []);
          List.iter
            (fun (gate, mutate) ->
              let mutated = mutate rows in
              check_bool (gate ^ ": mutation changes a row") true
                (mutated <> rows);
              check_bool (gate ^ " rejects the mutation") true
                (List.mem gate (failing e mutated)))
            (List.assoc id mutations))

let test_registry_complete () =
  let ids = List.map (fun e -> e.Experiments.id) Experiments.all in
  check_int "twelve experiments" 12 (List.length ids);
  List.iter
    (fun id ->
      check_bool (id ^ " registered") true (List.mem id ids);
      check_bool (id ^ " has gates") true
        ((Option.get (Experiments.find id)).Experiments.gates <> []))
    [ "E1"; "E2"; "E3"; "E4"; "E5"; "E6"; "E7"; "E8"; "E9"; "E10"; "E11"; "E12" ]

let test_find_case_insensitive () =
  check_bool "finds lowercase" true (Experiments.find "e5" <> None);
  check_bool "rejects unknown" true (Experiments.find "E99" = None)

let () =
  Alcotest.run "experiments"
    [
      ( "registry",
        [
          Alcotest.test_case "registry complete" `Quick test_registry_complete;
          Alcotest.test_case "find" `Quick test_find_case_insensitive;
        ] );
      ( "claims hold (quick sweeps)",
        List.map test_experiment
          [
            "E1"; "E2"; "E3"; "E4"; "E5"; "E6"; "E7"; "E8"; "E9"; "E10"; "E11";
            "E12";
          ] );
    ]
