(* The bench gates: one table that every bench file must pass, whether
   `wfa bench` just wrote it or it is the committed BENCH.json.

   Most entries come from four combinators over the decoded rows:

   - [each]: a predicate every matching row must satisfy (schema units,
     exact counts, no lost updates, ...);
   - [cost_formula]: sim scan rows equal Scan.cost_formula exactly — an
     [each] whose expected value is the Section 6.2 formula;
   - [coverage]: named benches carry named metrics at named procs;
   - [at_most]: one measured quantity never exceeds another at the same
     procs (batched vs unbatched, adaptive vs optimized, ...).

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

(* At every [procs] where [hi] is measured, [lo] must be measured too and
   come in at or under it. *)
let at_most name ~procs lo hi =
  {
    name;
    check =
      (fun rows ->
        List.filter_map
          (fun p ->
            match (measure rows lo p, measure rows hi p) with
            | Some a, Some b when a > b ->
                Some
                  (Printf.sprintf "procs=%d: %s = %s exceeds %s = %s" p
                     (label lo) (number_to_string a) (label hi)
                     (number_to_string b))
            | None, Some _ ->
                Some
                  (Printf.sprintf "procs=%d: no %s to compare with %s" p
                     (label lo) (label hi))
            | _ -> None)
          procs);
  }

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
    (* exact counts *)
    cost_formula "scan_plain" Snapshot.Scan.Plain;
    cost_formula "scan_opt" Snapshot.Scan.Optimized;
    (* only the uncontended adaptive fast path has an exact count: a
       contended adaptive scan may escalate *)
    cost_formula "scan_adaptive_uncontended" Snapshot.Scan.Adaptive;
    (* one scan per process opens no later generation, so contended or
       not each lattice scan is one descent of ceil(log2 n) levels *)
    cost_formula "scan_lattice" Snapshot.Scan.Lattice;
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

let check rows =
  List.concat_map
    (fun g -> List.map (Printf.sprintf "%s: %s" g.name) (g.check rows))
    gates

let validate rows =
  match check rows with [] -> Ok (List.length rows) | errs -> Error errs

let validate_string contents =
  Result.bind (Bench_json.rows_of_string contents) validate

let validate_file path = Result.bind (Bench_json.rows_of_file path) validate
