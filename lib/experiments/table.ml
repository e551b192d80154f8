(* The one table layout of `wfa experiment`: bench rows pivoted to one
   line per (bench, procs) and one column per metric, both in order of
   first appearance.  EXPERIMENTS.md records these tables. *)

open Bench_json

let first_appearances key rows =
  List.fold_left
    (fun acc r -> if List.mem (key r) acc then acc else key r :: acc)
    [] rows
  |> List.rev

let pivot rows =
  let rows = List.filter (fun r -> r.window = None) rows in
  let metrics = first_appearances (fun r -> r.metric) rows in
  let cell (bench, procs) metric =
    match
      List.find_opt
        (fun r -> r.bench = bench && r.procs = procs && r.metric = metric)
        rows
    with
    | Some r -> number_to_string r.value
    | None -> ""
  in
  let lines =
    ("bench" :: "procs" :: metrics)
    :: List.map
         (fun ((bench, procs) as key) ->
           bench :: string_of_int procs :: List.map (cell key) metrics)
         (first_appearances (fun r -> (r.bench, r.procs)) rows)
  in
  let widths =
    List.fold_left
      (List.map2 (fun w cell -> max w (String.length cell)))
      (List.map (fun _ -> 0) (List.hd lines))
      lines
  in
  let render line =
    String.trim
      (String.concat "  "
         (List.map2
            (fun w cell -> cell ^ String.make (w - String.length cell) ' ')
            widths line))
    ^ "\n"
  in
  String.concat ""
    (render (List.hd lines)
    :: render (List.map (fun w -> String.make w '-') widths)
    :: List.map render (List.tl lines))
