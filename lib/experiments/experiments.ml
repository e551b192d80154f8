(* The experiment registry: every quantitative claim of the paper mapped
   to a table generator.  `dune exec bin/wfa_cli.exe -- experiment`
   prints them all, `... experiment <id>` prints one.  See DESIGN.md
   Section 5 for the per-experiment index and EXPERIMENTS.md for recorded
   results. *)

(* Re-export the table type so the CLI can render experiment output
   itself, and the bench pipeline — row codec, gate table, stages — so it
   can run and validate bench files. *)
module Table = Table
module Bench_json = Bench_json
module Bench_gates = Bench_gates
module Bench_stages = Bench_stages

type experiment = {
  id : string;
  paper_source : string;
  run : unit -> Table.t list;
}

(* The [quick] forms trim sweep sizes so the whole suite stays in CI
   budgets; the full forms are the defaults. *)
let all ?(quick = false) () =
  [
    {
      id = "E1";
      paper_source = "Theorem 5 (upper bound)";
      run =
        (fun () ->
          [ E_agreement.e1 ~seeds:(if quick then 3 else 10) () ]);
    };
    {
      id = "E2";
      paper_source = "Lemma 6 (lower bound)";
      run = (fun () -> [ E_agreement.e2 ~max_k:(if quick then 5 else 8) () ]);
    };
    {
      id = "E3";
      paper_source = "Theorem 7 (hierarchy)";
      run = (fun () -> [ E_agreement.e3 ~max_k:(if quick then 5 else 8) () ]);
    };
    {
      id = "E4";
      paper_source = "Theorem 8 (wait-free but not bounded)";
      run = (fun () -> [ E_agreement.e4 ~max_exp:(if quick then 4 else 6) () ]);
    };
    {
      id = "E5";
      paper_source = "Section 6.2 (scan cost)";
      run = (fun () -> [ E_snapshot.e5 () ]);
    };
    {
      id = "E6";
      paper_source = "Section 5.4 (universal construction overhead)";
      run = (fun () -> [ E_universal.e6 () ]);
    };
    {
      id = "E7";
      paper_source = "Section 2 (snapshot comparison)";
      run =
        (fun () ->
          [
            E_snapshot.e7_cost ();
            E_snapshot.e7_verdicts ~seeds:(if quick then 100 else 400) ();
          ]);
    };
    {
      id = "E8";
      paper_source = "Conclusions (Hoest-Shavit: 2 vs 3 processes)";
      run =
        (fun () ->
          [ E_agreement.e8 ~ks:(if quick then [ 2; 3 ] else [ 2; 3; 4; 5 ]) () ]);
    };
    {
      id = "E9";
      paper_source = "Section 5.4 (type-specific optimization)";
      run =
        (fun () ->
          [
            E_universal.e9
              ~history_sizes:(if quick then [ 25; 50 ] else [ 25; 50; 100; 200 ])
              ();
          ]);
    };
    {
      id = "E10";
      paper_source = "Section 2 (lattice agreement, O(n log n) snapshots)";
      run =
        (fun () ->
          [ E_lattice.e10 ~ns:(if quick then [ 2; 4; 8 ] else [ 2; 4; 8; 16; 32; 64 ]) () ]);
    };
    {
      id = "E11";
      paper_source = "After Lemma 6 (Hoest-Shavit tight constants in IIS)";
      run =
        (fun () ->
          [
            E_iis.e11 ~max_k:(if quick then 3 else 6)
              ~seeds:(if quick then 3 else 10) ();
          ]);
    };
    {
      id = "E12";
      paper_source = "Tooling (DPOR vs naive exhaustive exploration)";
      run = (fun () -> [ E_explore.e12 ~agreement:(not quick) () ]);
    };
  ]

let find ?quick id =
  List.find_opt
    (fun e -> String.lowercase_ascii e.id = String.lowercase_ascii id)
    (all ?quick ())

let run_all ?quick () =
  List.iter
    (fun e ->
      Printf.printf "\n### %s — %s\n" e.id e.paper_source;
      List.iter Table.print (e.run ()))
    (all ?quick ())
