(* The bench row codec: one flat row schema, written through the repo's
   one JSON printer and decoded back into rows by its one reader (both
   in lib/json), so a file holds every value exactly.  The stages that
   produce rows live in Bench_stages, the gates that check them in
   Bench_gates.

     { "bench": "scan_plain_contended", "procs": 4, "backend": "sim",
       "metric": "reads", "value": 21, "unit": "accesses" }

   Rows carrying an optional 7th field "window" are time-series samples:
   the value of a w_-prefixed metric during one fixed-width telemetry
   sampling window of the stage's run.

   Three backends feed rows:

   - "sim":    exact step counts from the deterministic simulator.
               Machine-independent; the scan rows must equal
               Scan.cost_formula.
   - "native": wall-clock measurements over real OCaml domains (Atomic
               registers), at procs in {1,2,4,8}.
   - "direct": single-threaded wall-clock of the flagship operations on
               the sequential backend, and of E12's searches.

   Everything is deterministic in structure (same benches, same procs
   sweep) so files diff across commits; only wall-clock values vary by
   machine. *)

(* --- rows and JSON emission ----------------------------------------------- *)

type row = {
  bench : string;
  procs : int;
  backend : string;
  metric : string;
  value : float;
  unit_ : string;
  window : int option;
      (* [Some i] marks a windowed time-series sample — the value of a
         [w_]-prefixed metric in the i-th sampling window of the stage's
         run.  [None] rows are the flat six-field schema. *)
}

let row ~bench ~procs ~backend ~metric ~value ~unit_ =
  (* JSON has no encoding for non-finite numbers; a non-finite value here
     is always a measurement bug, so fail loudly rather than emit it. *)
  if not (Float.is_finite value) then
    failwith
      (Printf.sprintf "Bench_json: non-finite value for %s/%s" bench metric);
  { bench; procs; backend; metric; value; unit_; window = None }

let wrow ~window ~bench ~procs ~backend ~metric ~value ~unit_ =
  if window < 0 then
    failwith
      (Printf.sprintf "Bench_json: negative window for %s/%s" bench metric);
  { (row ~bench ~procs ~backend ~metric ~value ~unit_) with
    window = Some window }

(* The display form of a value, for tables and gate messages: integers
   in full, anything else to 6 significant digits.  Files hold the exact
   value ([Json.to_string]). *)
let number_to_string v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

let row_to_json r =
  let int i = Json.Num (float_of_int i) in
  Json.to_string
    (Json.Obj
       ([
          ("bench", Json.Str r.bench);
          ("procs", int r.procs);
          ("backend", Json.Str r.backend);
          ("metric", Json.Str r.metric);
          ("value", Json.Num r.value);
          ("unit", Json.Str r.unit_);
        ]
       @ Option.fold ~none:[] ~some:(fun w -> [ ("window", int w) ]) r.window))

let to_json rows =
  "[\n"
  ^ String.concat ",\n" (List.map (fun r -> "  " ^ row_to_json r) rows)
  ^ "\n]\n"

let write_file ~path rows =
  Out_channel.with_open_bin path (fun oc -> output_string oc (to_json rows))

(* --- decoding ------------------------------------------------------------- *)

let row_of_json = function
  | Json.Obj fields -> (
      let find k = List.assoc_opt k fields in
      let str k =
        match find k with
        | Some (Json.Str s) -> Ok s
        | _ -> Error (Printf.sprintf "field %S missing or not a string" k)
      in
      let num k =
        match find k with
        | Some (Json.Num f) -> Ok f
        | _ -> Error (Printf.sprintf "field %S missing or not a number" k)
      in
      let has_window = find "window" <> None in
      let expected_fields = if has_window then 7 else 6 in
      if List.length fields <> expected_fields then
        Error
          "row must have exactly the 6 schema fields (plus an optional \
           \"window\")"
      else
        let window =
          if not has_window then Ok None
          else
            match num "window" with
            | Error e -> Error e
            | Ok w when not (Float.is_integer w) || w < 0.0 ->
                Error "\"window\" must be a non-negative integer"
            | Ok w -> Ok (Some (int_of_float w))
        in
        match (str "bench", num "procs", str "backend", str "metric",
               num "value", str "unit", window)
        with
        | Ok bench, Ok procs, Ok backend, Ok metric, Ok value, Ok unit_,
          Ok window ->
            if not (Float.is_integer procs) || procs < 0.0 then
              Error "\"procs\" must be a non-negative integer"
            else if backend <> "sim" && backend <> "native"
                    && backend <> "direct"
            then Error (Printf.sprintf "unknown backend %S" backend)
            else
              Ok
                {
                  bench;
                  procs = int_of_float procs;
                  backend;
                  metric;
                  value;
                  unit_;
                  window;
                }
        | Error e, _, _, _, _, _, _
        | _, Error e, _, _, _, _, _
        | _, _, Error e, _, _, _, _
        | _, _, _, Error e, _, _, _
        | _, _, _, _, Error e, _, _
        | _, _, _, _, _, Error e, _
        | _, _, _, _, _, _, Error e -> Error e)
  | _ -> Error "row is not an object"

(* A whole bench file: a non-empty JSON array of well-formed rows.  Every
   malformed row is reported, by index. *)
let rows_of_string contents =
  match Json.parse contents with
  | Error e -> Error [ Printf.sprintf "invalid JSON: %s" e ]
  | Ok (Json.Arr []) -> Error [ "empty bench file: no rows" ]
  | Ok (Json.Arr items) -> (
      let decoded =
        List.mapi
          (fun i item ->
            Result.map_error (Printf.sprintf "row %d: %s" i) (row_of_json item))
          items
      in
      match List.filter_map (function Error e -> Some e | Ok _ -> None) decoded
      with
      | [] -> Ok (List.filter_map Result.to_option decoded)
      | errs -> Error errs)
  | Ok _ -> Error [ "top-level JSON value must be an array of rows" ]

let rows_of_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error [ e ]
  | contents -> rows_of_string contents
