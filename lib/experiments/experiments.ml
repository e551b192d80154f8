(* The results pipeline: every quantitative claim of the paper is an
   experiment whose stage emits bench rows and whose claims are entries
   of the gate table.  `dune exec bin/wfa_cli.exe -- experiment [ID]`
   runs one experiment (or all), prints its rows as one pivot table and
   reports its gates; `... bench` runs every stage into BENCH.json.  See
   DESIGN.md Section 5 for the per-experiment index and EXPERIMENTS.md
   for recorded results. *)

(* Re-export the pipeline — row codec, gate table, stages, pivot — so
   the CLI can run and validate bench files. *)
module Table = Table
module Bench_json = Bench_json
module Bench_gates = Bench_gates
module Bench_stages = Bench_stages

type experiment = {
  id : string;
  paper_source : string;
  rows : quick:bool -> Bench_json.row list;
      (* the experiment's stage; [quick] trims sweep sizes so the whole
         suite stays in CI budgets *)
  gates : Bench_gates.gate list;
}

let experiment id paper_source rows =
  { id; paper_source; rows; gates = List.assoc id Bench_gates.claims }

(* E2 and E3 share the Theorem 7 sweep; E9 reads E6's solo rows next to
   its own. *)
let all =
  [
    experiment "E1" "Theorem 5 (upper bound)" E_agreement.e1;
    experiment "E2" "Lemma 6 (lower bound)" E_agreement.theorem7;
    experiment "E3" "Theorem 7 (hierarchy)" E_agreement.theorem7;
    experiment "E4" "Theorem 8 (wait-free but not bounded)" E_agreement.e4;
    experiment "E5" "Section 6.2 (scan cost)" E_snapshot.e5;
    experiment "E6" "Section 5.4 (universal construction overhead)"
      E_universal.e6;
    experiment "E7" "Section 2 (snapshot comparison)" E_snapshot.e7;
    experiment "E8" "Conclusions (Hoest-Shavit: 2 vs 3 processes)"
      E_agreement.e8;
    experiment "E9" "Section 5.4 (type-specific optimization)"
      (fun ~quick -> E_universal.e6 ~quick @ E_universal.e9 ~quick);
    experiment "E10" "Section 2 (lattice agreement, O(n log n) snapshots)"
      E_lattice.e10;
    experiment "E11" "After Lemma 6 (Hoest-Shavit tight constants in IIS)"
      E_iis.e11;
    experiment "E12" "Tooling (DPOR vs naive exhaustive exploration)"
      E_explore.e12;
  ]

let find id =
  List.find_opt
    (fun e -> String.lowercase_ascii e.id = String.lowercase_ascii id)
    all

(* Each of [e]'s gates with its failures on [rows]. *)
let verdicts e rows =
  List.map (fun g -> (g.Bench_gates.name, g.Bench_gates.check rows)) e.gates

(* The bench: the measurement stages, then every E1-E12 stage once — E5's
   rows are the uncontended scan rows the simulator stage already
   emits. *)
let collect ~quick =
  Bench_stages.collect ~quick
  @ List.concat_map
      (fun stage -> stage ~quick)
      [
        E_agreement.e1; E_agreement.theorem7; E_agreement.e4; E_universal.e6;
        E_snapshot.e7; E_agreement.e8; E_universal.e9; E_lattice.e10;
        E_iis.e11; E_explore.e12;
      ]

let default_path = "BENCH.json"

(* Runs the full pipeline and writes [path]; returns the rows. *)
let run_bench ?(path = default_path) ~quick () =
  let rows = collect ~quick in
  Bench_json.write_file ~path rows;
  rows
