(* The bench gates: one table that every bench file must pass, whether
   `wfa bench` just wrote it or it is the committed BENCH.json.

   Most entries come from four combinators over the decoded rows:

   - [each]: a predicate every matching row must satisfy (schema units,
     exact counts, no lost updates, ...);
   - [cost_formula]: sim scan rows equal Scan.cost_formula exactly — an
     [each] whose expected value is the Section 6.2 formula;
   - [coverage]: named benches carry named metrics at named procs;
   - [ordered] and its same-procs form [at_most]: one measured quantity
     never exceeds (or, strictly, stays below) another (batched vs
     unbatched, adaptive vs optimized, forced steps along a sweep, ...).

   The paper's claims, E1-E12, are [claims]: one list of gates per
   experiment, which `wfa experiment ID` reports and every bench file
   must also pass.

   Two checks need a whole group of rows at once and are named entries
   of their own: the windowed-series reconciliation and the
   schedule-exploration verdicts.

   Sim counts are exact, so their gates are exact.  Wall-clock rows are
   schema-checked but never threshold-gated, with one exception: batched
   store throughput (the median of its trials) may not fall below
   unbatched at procs >= 4, since batching that slows the store down
   under contention defeats its only purpose. *)

open Bench_json

type gate = { name : string; check : row list -> string list }

let describe r =
  Printf.sprintf "%s %s procs=%d%s %s = %s %s" r.backend r.bench r.procs
    (match r.window with None -> "" | Some w -> Printf.sprintf " [w%d]" w)
    r.metric (number_to_string r.value) r.unit_

let non_negative_integer v = v >= 0.0 && Float.is_integer v

(* --- combinators ---------------------------------------------------------- *)

let each name ~applies ~holds ~expect =
  {
    name;
    check =
      List.filter_map (fun r ->
          if applies r && not (holds r) then
            Some (Printf.sprintf "%s, expected %s" (describe r) (expect r))
          else None);
  }

(* Sim reads/writes of every bench starting with [prefix] must equal
   [Scan.cost_formula ~procs variant]. *)
let cost_formula prefix variant =
  let expected r =
    let reads, writes = Snapshot.Scan.cost_formula ~procs:r.procs variant in
    match r.metric with
    | "reads" -> Some reads
    | "writes" -> Some writes
    | _ -> None
  in
  each
    (Printf.sprintf "%s* = cost_formula" prefix)
    ~applies:(fun r ->
      r.backend = "sim"
      && String.starts_with ~prefix r.bench
      && expected r <> None)
    ~holds:(fun r -> Option.map float_of_int (expected r) = Some r.value)
    ~expect:(fun r -> string_of_int (Option.get (expected r)))

let coverage name ~backend ~benches ~procs ~metrics =
  {
    name;
    check =
      (fun rows ->
        List.concat_map
          (fun bench ->
            List.concat_map
              (fun p ->
                List.filter_map
                  (fun metric ->
                    if
                      List.exists
                        (fun r ->
                          r.backend = backend && r.bench = bench
                          && r.procs = p && r.metric = metric)
                        rows
                    then None
                    else
                      Some
                        (Printf.sprintf "no %s %s row for %s procs=%d" backend
                           metric bench p))
                  metrics)
              procs)
          benches);
  }

(* A measured quantity: the sum of [metrics] over one bench's
   non-windowed [backend] rows at a given procs. *)
type quantity = {
  q_backend : string;
  q_bench : string;
  q_metrics : string list;
}

let value ~backend bench metric =
  { q_backend = backend; q_bench = bench; q_metrics = [ metric ] }

(* total simulator accesses, reads + writes *)
let accesses bench =
  { q_backend = "sim"; q_bench = bench; q_metrics = [ "reads"; "writes" ] }

let measure rows q procs =
  let find metric =
    List.find_opt
      (fun r ->
        r.window = None && r.backend = q.q_backend && r.bench = q.q_bench
        && r.procs = procs && r.metric = metric)
      rows
  in
  List.fold_left
    (fun acc metric ->
      match (acc, find metric) with
      | Some a, Some r -> Some (a +. r.value)
      | _ -> None)
    (Some 0.0) q.q_metrics

let label q =
  Printf.sprintf "%s %s %s" q.q_backend q.q_bench
    (String.concat "+" q.q_metrics)

(* In each pair of points — a quantity at a procs — where the second is
   measured, the first must be measured too and come in at or under it
   ([strict]: under it). *)
let ordered name ~strict pairs =
  let point (q, p) = Printf.sprintf "%s procs=%d" (label q) p in
  {
    name;
    check =
      (fun rows ->
        List.filter_map
          (fun (((lo, p) as a), ((hi, q) as b)) ->
            match (measure rows lo p, measure rows hi q) with
            | Some x, Some y when x > y || (strict && x = y) ->
                Some
                  (Printf.sprintf "%s = %s %s %s = %s" (point a)
                     (number_to_string x)
                     (if strict then "is not below" else "exceeds")
                     (point b) (number_to_string y))
            | None, Some _ ->
                Some
                  (Printf.sprintf "no %s to compare with %s" (point a) (point b))
            | _ -> None)
          pairs);
  }

(* At every [procs] where [hi] is measured, [lo] must be measured too and
   come in at or under it. *)
let at_most name ~procs lo hi =
  ordered name ~strict:false (List.map (fun p -> ((lo, p), (hi, p))) procs)

(* --- the series reconciliation -----------------------------------------------

   Per (bench, procs, backend) group of windowed rows: a w_ops series
   exists, w_ops and w_end_ns cover the same contiguous windows 0..k-1,
   the end timestamps strictly increase (the monotone-clock grid), and
   the per-window ops sum to the stage's non-windowed "ops" total — so a
   sampler that dropped windows (ring overflow) cannot masquerade as
   full coverage. *)
let series_reconciliation =
  let group_errors rows (bench, procs, backend) wrows =
    let where = Printf.sprintf "%s %s procs=%d" backend bench procs in
    let series metric =
      List.filter (fun r -> r.metric = metric) wrows
      |> List.sort (fun a b -> compare a.window b.window)
    in
    let w_ops = series "w_ops" and w_end = series "w_end_ns" in
    let contiguous metric s =
      if List.mapi (fun i r -> r.window = Some i) s |> List.for_all Fun.id
      then []
      else
        [ Printf.sprintf "%s: %s windows are not contiguous from 0" where metric ]
    in
    let rec increasing = function
      | a :: (b :: _ as rest) ->
          if b.value <= a.value then
            [ Printf.sprintf "%s: w_end_ns not strictly increasing at %s"
                where (describe b) ]
          else increasing rest
      | _ -> []
    in
    let sum = List.fold_left (fun acc r -> acc +. r.value) 0.0 w_ops in
    List.concat
      [
        (if w_ops = [] then [ where ^ ": windowed rows without a w_ops series" ]
         else []);
        contiguous "w_ops" w_ops;
        contiguous "w_end_ns" w_end;
        (if List.length w_end <> List.length w_ops then
           [ Printf.sprintf "%s: w_end_ns covers %d windows but w_ops covers %d"
               where (List.length w_end) (List.length w_ops) ]
         else []);
        increasing w_end;
        (match measure rows (value ~backend bench "ops") procs with
        | None ->
            [ where ^ ": no \"ops\" total row to reconcile the series with" ]
        | Some total when total <> sum ->
            [ Printf.sprintf
                "%s: per-window ops sum to %s but the run total is %s \
                 (windows dropped?)"
                where (number_to_string sum) (number_to_string total) ]
        | Some _ -> []);
      ]
  in
  {
    name = "series reconciliation";
    check =
      (fun rows ->
        let windowed = List.filter (fun r -> r.window <> None) rows in
        List.sort_uniq compare
          (List.map (fun r -> (r.bench, r.procs, r.backend)) windowed)
        |> List.concat_map (fun ((bench, procs, backend) as key) ->
               group_errors rows key
                 (List.filter
                    (fun r ->
                      r.bench = bench && r.procs = procs && r.backend = backend)
                    windowed)));
  }

(* --- the schedule-exploration verdicts ------------------------------------

   Each stage emits explored/pruned/sampled/violations.  The clean
   atomic-scan stage must stay clean and each injected-bug stage must
   surface its bug — the point of committing the counts.  Random stages
   sample (sampled = explored > 0); systematic stages do not
   (sampled = 0). *)
let explore_stages =
  [
    ("explore_scan_dpor", `Systematic, `Clean);
    ("explore_counter_bounded", `Systematic, `Buggy);
    ("explore_lost_update_uniform", `Random, `Buggy);
    ("explore_racy_max_uniform", `Random, `Buggy);
    ("explore_collect_uniform", `Random, `Buggy);
  ]

let explore_verdicts =
  {
    name = "explore verdicts";
    check =
      (fun rows ->
        List.concat_map
          (fun (bench, way, verdict) ->
            let get metric =
              List.find_map
                (fun r ->
                  if r.bench = bench && r.metric = metric then Some r.value
                  else None)
                rows
            in
            match
              (get "explored", get "pruned", get "sampled", get "violations")
            with
            | Some explored, Some _, Some sampled, Some violations ->
                List.filter_map Fun.id
                  [
                    (match verdict with
                    | `Clean when violations <> 0.0 ->
                        Some
                          (Printf.sprintf
                             "%s: expected a clean exploration, found %s \
                              violation(s)"
                             bench (number_to_string violations))
                    | `Buggy when violations < 1.0 ->
                        Some
                          (bench ^ ": injected bug not found within the budget")
                    | _ -> None);
                    (match way with
                    | `Random when sampled <> explored || explored <= 0.0 ->
                        Some
                          (Printf.sprintf
                             "%s: random search must have sampled = explored \
                              > 0 (explored=%s, sampled=%s)"
                             bench (number_to_string explored)
                             (number_to_string sampled))
                    | `Systematic when sampled <> 0.0 ->
                        Some
                          (Printf.sprintf
                             "%s: systematic search must have sampled = 0, \
                              got %s"
                             bench (number_to_string sampled))
                    | _ -> None);
                  ]
            | _ ->
                [
                  bench ^ ": missing one of explored/pruned/sampled/violations";
                ])
          explore_stages);
  }

(* --- the paper's claims, E1-E12 -------------------------------------------- *)

let sim = value ~backend:"sim"

let rec consecutive = function
  | a :: (b :: _ as rest) -> (a, b) :: consecutive rest
  | _ -> []

(* The hierarchy level k of each Theorem 7 bench (eps = 3^-k). *)
let levels =
  List.map
    (fun k -> (E_agreement.theorem7_bench k, k))
    (E_agreement.theorem7_levels ~quick:false)

(* [metric] of a two-process hierarchy bench (E2-E4) *)
let two_process metric bench = (sim bench metric, 2)

(* Per snapshot algorithm of E7: wait-free, linearizable. *)
let snapshot_claims =
  [
    ("snapshot_scan", (true, true));
    ("snapshot_afek", (true, true));
    ("snapshot_double_collect", (false, true));
    ("snapshot_naive_collect", (true, false));
  ]

(* Per E12 program: its procs and its verdict on both ways. *)
let exploration_claims =
  [
    ("lost_update", 2, `Buggy);
    ("scan", 2, `Clean);
    ("counter", 2, `Clean);
    ("agreement", 3, `Clean);
  ]

let verdict bench =
  List.find_map
    (fun (program, _, v) ->
      if E_explore.e12_bench program = bench then Some v else None)
    exploration_claims

(* eps = 3^-k of each E11 bench *)
let iis_epsilon =
  List.map
    (fun k -> (E_iis.iis_bench k, 1.0 /. Float.pow 3.0 (float_of_int k)))
    (E_iis.iis_levels ~quick:false)

let claims =
  let open E_agreement in
  [
    ( "E1",
      [
        ordered "E1 worst-case steps within Theorem 5's bound" ~strict:false
          (List.concat_map
             (fun ratio ->
               let bench = e1_bench ratio in
               List.map
                 (fun n ->
                   ((sim bench "steps_max", n), (sim bench "step_bound", n)))
                 e1_procs)
             e1_ratios);
        coverage "E1 rows" ~backend:"sim"
          ~benches:(List.map e1_bench e1_ratios)
          ~procs:e1_procs ~metrics:[ "steps_max"; "step_bound" ];
      ] );
    ( "E2",
      [
        each "E2 Lemma 6 floor = k at delta/eps = 3^k"
          ~applies:(fun r -> r.metric = "floor" && List.mem_assoc r.bench levels)
          ~holds:(fun r -> r.value = float_of_int (List.assoc r.bench levels))
          ~expect:(fun r -> string_of_int (List.assoc r.bench levels));
        ordered "E2 forced steps >= the Lemma 6 floor" ~strict:false
          (List.map
             (fun (b, _) -> (two_process "floor" b, two_process "forced" b))
             levels);
        coverage "E2 rows" ~backend:"sim"
          ~benches:(List.map theorem7_bench (theorem7_levels ~quick:true))
          ~procs:[ 2 ] ~metrics:[ "floor"; "forced" ];
      ] );
    ( "E3",
      [
        each "E3 forced steps > k"
          ~applies:(fun r ->
            r.metric = "forced" && List.mem_assoc r.bench levels)
          ~holds:(fun r -> r.value > float_of_int (List.assoc r.bench levels))
          ~expect:(fun r ->
            Printf.sprintf "more than %d" (List.assoc r.bench levels));
        ordered "E3 forced steps <= Theorem 5's K" ~strict:false
          (List.map
             (fun (b, _) -> (two_process "forced" b, two_process "step_bound" b))
             levels);
        each "E3 attacked executions keep the Figure 1 spec"
          ~applies:(fun r ->
            r.metric = "violations" && List.mem_assoc r.bench levels)
          ~holds:(fun r -> r.value = 0.0)
          ~expect:(fun _ -> "0");
        coverage "E3 rows" ~backend:"sim"
          ~benches:(List.map theorem7_bench (theorem7_levels ~quick:true))
          ~procs:[ 2 ] ~metrics:[ "forced"; "step_bound"; "violations" ];
      ] );
    ( "E4",
      [
        ordered "E4 forced steps rise strictly with delta" ~strict:true
          (consecutive
             (List.map
                (fun e -> two_process "forced" (theorem8_bench e))
                (theorem8_decades ~quick:false)));
        coverage "E4 rows" ~backend:"sim"
          ~benches:(List.map theorem8_bench (theorem8_decades ~quick:true))
          ~procs:[ 2 ] ~metrics:[ "floor"; "forced"; "step_bound" ];
      ] );
    ( "E5",
      [
        cost_formula "scan_plain" Snapshot.Scan.Plain;
        cost_formula "scan_opt" Snapshot.Scan.Optimized;
        (* only the uncontended adaptive fast path has an exact count: a
           contended adaptive scan may escalate *)
        cost_formula "scan_adaptive_uncontended" Snapshot.Scan.Adaptive;
        (* one scan per process opens no later generation, so contended
           or not each lattice scan is one descent of ceil(log2 n)
           levels *)
        cost_formula "scan_lattice" Snapshot.Scan.Lattice;
        coverage "E5 uncontended scans at every procs" ~backend:"sim"
          ~benches:
            (List.map
               (fun v -> Bench_stages.variant_name v ^ "_uncontended")
               Bench_stages.scan_variants)
          ~procs:Bench_stages.procs_sweep ~metrics:[ "reads"; "writes" ];
      ] );
    ( "E6",
      [
        cost_formula "universal_counter_solo" Snapshot.Scan.Adaptive;
        coverage "E6 rows" ~backend:"sim" ~benches:[ "universal_counter_solo" ]
          ~procs:E_universal.solo_procs ~metrics:[ "reads"; "writes" ];
      ] );
    ( "E7",
      [
        each "E7 wait-free snapshots finish under contention, the double \
              collect starves"
          ~applies:(fun r ->
            r.metric = "contended_steps"
            && List.mem_assoc r.bench snapshot_claims)
          ~holds:(fun r ->
            (r.value < float_of_int E_snapshot.starvation_budget)
            = fst (List.assoc r.bench snapshot_claims))
          ~expect:(fun r ->
            if fst (List.assoc r.bench snapshot_claims) then
              "fewer steps than the starvation budget"
            else "the starvation budget (starved)");
        each "E7 the checker rejects the naive collect alone"
          ~applies:(fun r ->
            r.metric = "violations" && List.mem_assoc r.bench snapshot_claims)
          ~holds:(fun r ->
            (r.value > 0.0) <> snd (List.assoc r.bench snapshot_claims))
          ~expect:(fun r ->
            if snd (List.assoc r.bench snapshot_claims) then "0"
            else "at least 1");
        coverage "E7 rows at procs 4" ~backend:"sim"
          ~benches:(List.map fst snapshot_claims) ~procs:[ 4 ]
          ~metrics:[ "quiet_steps"; "contended_steps" ];
        coverage "E7 rows at procs 3" ~backend:"sim"
          ~benches:(List.map fst snapshot_claims) ~procs:[ 3 ]
          ~metrics:[ "violations" ];
      ] );
    ( "E8",
      [
        ordered "E8 three processes are forced to more steps than two"
          ~strict:true
          (List.map
             (fun k ->
               let bench = greedy_bench k in
               ((sim bench "forced", 2), (sim bench "forced", 3)))
             (greedy_levels ~quick:false));
        (* the log term of Theorem 5, which E1's schedules never force *)
        ordered "E8 forced steps rise strictly with k at n = 2 and 3"
          ~strict:true
          (List.concat_map
             (fun n ->
               consecutive
                 (List.map
                    (fun k -> (sim (greedy_bench k) "forced", n))
                    (greedy_levels ~quick:false)))
             [ 2; 3 ]);
        coverage "E8 rows" ~backend:"sim"
          ~benches:(List.map greedy_bench (greedy_levels ~quick:true))
          ~procs:[ 2; 3 ] ~metrics:[ "forced" ];
      ] );
    ( "E9",
      [
        cost_formula "direct_counter_solo" Snapshot.Scan.Optimized;
        coverage "E9 solo rows" ~backend:"sim" ~benches:[ "direct_counter_solo" ]
          ~procs:E_universal.solo_procs ~metrics:[ "reads"; "writes" ];
        coverage "E9 history rows" ~backend:"direct"
          ~benches:
            (List.concat_map
               (fun ops ->
                 [
                   E_universal.generic_history_bench ops;
                   E_universal.direct_history_bench ops;
                 ])
               (E_universal.history_sizes ~quick:true))
          ~procs:[ 4 ] ~metrics:[ "ns_per_op" ];
      ] );
    ( "E10",
      [
        cost_formula "lattice_agreement_scan" Snapshot.Scan.Optimized;
        ordered "E10 classifier steps below scan steps" ~strict:true
          (List.map
             (fun n ->
               ( (accesses "lattice_agreement_classifier", n),
                 (accesses "lattice_agreement_scan", n) ))
             (E_lattice.lattice_procs ~quick:false));
        coverage "E10 rows" ~backend:"sim"
          ~benches:[ "lattice_agreement_scan"; "lattice_agreement_classifier" ]
          ~procs:(E_lattice.lattice_procs ~quick:true)
          ~metrics:[ "reads"; "writes" ];
      ] );
    ( "E11",
      [
        each "E11 worst gap <= eps with ceil(log_base(delta/eps)) layers"
          ~applies:(fun r ->
            r.metric = "worst_gap" && List.mem_assoc r.bench iis_epsilon)
          (* at n = 2 the gap is eps exactly; bench files now hold it
             exactly, but the committed BENCH.json predates that and keeps
             6 significant digits, so the tolerance goes when that file is
             next regenerated *)
          ~holds:(fun r ->
            r.value <= List.assoc r.bench iis_epsilon *. (1.0 +. 1e-5))
          ~expect:(fun r ->
            Printf.sprintf "at most eps = %g" (List.assoc r.bench iis_epsilon));
        coverage "E11 rows" ~backend:"sim"
          ~benches:(List.map E_iis.iis_bench (E_iis.iis_levels ~quick:true))
          ~procs:[ 2; 3 ] ~metrics:[ "layers"; "worst_gap" ];
      ] );
    ( "E12",
      [
        ordered "E12 DPOR explores at most the naive schedules" ~strict:false
          (List.map
             (fun (program, procs, _) ->
               let bench = E_explore.e12_bench program in
               ( (sim bench "dpor_explored", procs),
                 (sim bench "naive_explored", procs) ))
             exploration_claims);
        each "E12 both ways reach the program's verdict"
          ~applies:(fun r ->
            List.mem r.metric [ "naive_violations"; "dpor_violations" ]
            && verdict r.bench <> None)
          ~holds:(fun r ->
            (r.value > 0.0) = (verdict r.bench = Some `Buggy))
          ~expect:(fun r ->
            if verdict r.bench = Some `Buggy then "at least 1" else "0");
        coverage "E12 rows" ~backend:"sim"
          ~benches:
            (List.map E_explore.e12_bench [ "lost_update"; "scan"; "counter" ])
          ~procs:[ 2 ]
          ~metrics:
            [
              "naive_explored"; "dpor_explored"; "naive_violations";
              "dpor_violations";
            ];
      ] );
  ]

(* --- the table ------------------------------------------------------------ *)

let sweep = Bench_stages.procs_sweep
let store_benches = [ "store_batched"; "store_unbatched" ]

let openloop =
  List.map
    (fun rate -> (Bench_stages.openloop_bench_name rate, rate))
    Bench_stages.openloop_rates

let known_windowed_metric m =
  List.mem m
    [ "w_ops"; "w_end_ns"; "w_ops_per_sec"; "w_latency_p50"; "w_latency_p99" ]
  ||
  let prefix = Bench_stages.w_delta_prefix in
  String.starts_with ~prefix m
  && Telemetry.Event.of_name
       (String.sub m (String.length prefix)
          (String.length m - String.length prefix))
     <> None

let gates =
  [
    (* the row schema beyond well-formedness *)
    each "wall_ns is a positive span in ns"
      ~applies:(fun r -> r.metric = "wall_ns")
      ~holds:(fun r -> r.unit_ = "ns" && r.value > 0.0)
      ~expect:(fun _ -> "a positive value in \"ns\"");
    each "ops_per_sec is positive"
      ~applies:(fun r -> r.metric = "ops_per_sec")
      ~holds:(fun r -> r.value > 0.0)
      ~expect:(fun _ -> "a positive value");
    each "windowed vocabulary"
      ~applies:(fun _ -> true)
      ~holds:(fun r ->
        match r.window with
        | Some _ -> known_windowed_metric r.metric
        | None -> not (String.starts_with ~prefix:"w_" r.metric))
      ~expect:(fun r ->
        if r.window = None then "a window on every w_-prefixed metric"
        else "w_ops, w_end_ns, w_ops_per_sec, w_latency_* or w_delta_<event>");
    each "windowed values are non-negative, counts integral"
      ~applies:(fun r -> r.window <> None && r.metric <> "w_end_ns")
      ~holds:(fun r ->
        let count =
          r.metric = "w_ops"
          || String.starts_with ~prefix:Bench_stages.w_delta_prefix r.metric
        in
        r.value >= 0.0 && ((not count) || Float.is_integer r.value))
      ~expect:(fun _ -> "a non-negative value (an integer for counts)");
    each "explore rows are schedule counts"
      ~applies:(fun r -> String.starts_with ~prefix:"explore_" r.bench)
      ~holds:(fun r ->
        r.backend = "sim" && r.unit_ = "schedules"
        && non_negative_integer r.value)
      ~expect:(fun _ -> "a sim non-negative integer in \"schedules\"");
    each "sim store counters are integral"
      ~applies:(fun r -> r.backend = "sim" && List.mem r.bench store_benches)
      ~holds:(fun r -> non_negative_integer r.value)
      ~expect:(fun _ -> "a non-negative integer");
    (* exact counts; the sim scan rows are E5's *)
    each "scan_grid holds the Optimized footprint n(n+1)"
      ~applies:(fun r ->
        r.backend = "native" && r.bench = "scan_grid" && r.metric = "registers")
      ~holds:(fun r -> r.value = float_of_int (r.procs * (r.procs + 1)))
      ~expect:(fun r -> string_of_int (r.procs * (r.procs + 1)));
    each "no lost updates"
      ~applies:(fun r -> r.metric = "lost_updates")
      ~holds:(fun r -> r.value = 0.0)
      ~expect:(fun _ -> "0");
    each "target_rate matches the stage name"
      ~applies:(fun r ->
        r.metric = "target_rate" && List.mem_assoc r.bench openloop)
      ~holds:(fun r -> List.assoc r.bench openloop = r.value)
      ~expect:(fun r -> number_to_string (List.assoc r.bench openloop));
    (* coverage *)
    coverage "native counter at every procs" ~backend:"native"
      ~benches:[ "counter_inc" ] ~procs:sweep ~metrics:[ "ops_per_sec" ];
    coverage "native universal construction at every procs" ~backend:"native"
      ~benches:[ "universal_counter"; "universal_gset" ] ~procs:sweep
      ~metrics:[ "wall_ns"; "ops_per_sec" ];
    coverage "native adaptive and lattice scans at procs 8" ~backend:"native"
      ~benches:
        [
          "scan_adaptive_uncontended"; "scan_adaptive_contended";
          "scan_lattice_uncontended"; "scan_lattice_contended";
        ]
      ~procs:[ 8 ] ~metrics:[ "wall_ns" ];
    coverage "native store at every procs" ~backend:"native"
      ~benches:store_benches ~procs:sweep ~metrics:[ "wall_ns"; "ops_per_sec" ];
    coverage "sim store at every procs" ~backend:"sim" ~benches:store_benches
      ~procs:sweep ~metrics:[ "ops"; "entries" ];
    coverage "windowed store stages" ~backend:"native"
      ~benches:(List.map fst openloop @ [ Bench_stages.readmix_bench ])
      ~procs:[ 4 ] ~metrics:[ "wall_ns"; "ops_per_sec"; "ops"; "w_ops" ];
    coverage "open-loop target rates" ~backend:"native"
      ~benches:(List.map fst openloop) ~procs:[ 4 ] ~metrics:[ "target_rate" ];
    (* orderings *)
    at_most "adaptive <= optimized, uncontended" ~procs:sweep
      (accesses "scan_adaptive_uncontended")
      (accesses "scan_opt_uncontended");
    (* the E17 crossover: the formulas cross between procs 3 and 4 *)
    at_most "lattice <= optimized, contended" ~procs:[ 4; 8 ]
      (accesses "scan_lattice_contended")
      (accesses "scan_opt_contended");
    at_most "batched entries <= unbatched" ~procs:sweep
      (value ~backend:"sim" "store_batched" "entries")
      (value ~backend:"sim" "store_unbatched" "entries");
    at_most "unbatched throughput <= batched, procs >= 4" ~procs:[ 4; 8 ]
      (value ~backend:"native" "store_unbatched" "ops_per_sec")
      (value ~backend:"native" "store_batched" "ops_per_sec");
  ]
  @ List.map
      (fun bench ->
        at_most (bench ^ " entries <= ops") ~procs:sweep
          (value ~backend:"sim" bench "entries")
          (value ~backend:"sim" bench "ops"))
      store_benches
  @ List.map
      (fun bench ->
        at_most (bench ^ " spec_replays <= reference") ~procs:sweep
          (value ~backend:"sim" bench "spec_replays")
          (value ~backend:"sim" bench "spec_replays_reference"))
      [ "universal_counter"; "universal_gset" ]
  @ [ series_reconciliation; explore_verdicts ]
  @ List.concat_map snd claims

let check rows =
  List.concat_map
    (fun g -> List.map (Printf.sprintf "%s: %s" g.name) (g.check rows))
    gates

let validate rows =
  match check rows with [] -> Ok (List.length rows) | errs -> Error errs

let validate_string contents =
  Result.bind (Bench_json.rows_of_string contents) validate

let validate_file path = Result.bind (Bench_json.rows_of_file path) validate
