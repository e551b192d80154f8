(* Smoke tests for the experiment harness: every table generator runs,
   and the table's CLAIM COLUMN holds (no row says "NO" / "VIOLATED").
   This keeps the paper-reproduction guarantees themselves under test —
   a regression in any algorithm or bound shows up here as well as in
   the unit suites. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let cells_of_table (t : Experiments.Table.t) =
  (* re-render and scan the text: the claim columns use the literal
     markers "NO" and "VIOLATED" for failures *)
  Experiments.Table.render t

let table_claims_hold t =
  let s = cells_of_table t in
  let contains sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  (not (contains " NO")) && not (contains "VIOLATED")

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_experiment id =
  Alcotest.test_case id `Slow (fun () ->
      match Experiments.find ~quick:true id with
      | None -> Alcotest.fail ("unknown experiment " ^ id)
      | Some e ->
          let tables = e.Experiments.run () in
          check_bool (id ^ " produced tables") true (tables <> []);
          if id = "E7" then begin
            (* E7's claims are asymmetric by design: the correct
               algorithms must show no violation, the naive collect must
               show one, and the double collect must starve. *)
            let s = String.concat "\n" (List.map cells_of_table tables) in
            check_bool "naive collect caught" true (contains s "YES (seed");
            check_bool "double collect starved" true (contains s "STARVED");
            check_bool "scan passes" true (contains s "none")
          end
          else if id = "E12" then
            (* the last column is the claim: DPOR explored no more
               schedules than the naive search, with the same verdict, on
               each of the three quick-mode programs *)
            List.iter
              (fun (t : Experiments.Table.t) ->
                check_int "E12 programs" 3 (List.length t.rows_rev);
                List.iter
                  (fun row ->
                    check_bool "E12 claim holds" true
                      (List.nth row (List.length row - 1) = "yes"))
                  t.rows_rev)
              tables
          else
            List.iter
              (fun t ->
                check_bool (id ^ " claims hold") true (table_claims_hold t))
              tables)

let test_registry_complete () =
  let ids = List.map (fun e -> e.Experiments.id) (Experiments.all ()) in
  check_int "twelve experiments" 12 (List.length ids);
  List.iter
    (fun id ->
      check_bool (id ^ " registered") true (List.mem id ids))
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
