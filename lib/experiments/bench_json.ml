(* The bench row codec: one flat row schema, its JSON printer, and the
   JSON reader that decodes a bench file back into rows (also the
   in-repo JSON parser `wfa trace --check` validates Chrome traces
   with).  The stages that produce rows live in Bench_stages, the gates
   that check them in Bench_gates.

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

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let number_to_string v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

let row_to_json r =
  let window =
    match r.window with
    | None -> ""
    | Some w -> Printf.sprintf ", \"window\": %d" w
  in
  Printf.sprintf
    "{\"bench\": \"%s\", \"procs\": %d, \"backend\": \"%s\", \"metric\": \
     \"%s\", \"value\": %s, \"unit\": \"%s\"%s}"
    (escape_string r.bench) r.procs (escape_string r.backend)
    (escape_string r.metric) (number_to_string r.value)
    (escape_string r.unit_) window

let to_json rows =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "[\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf "  ";
      Buffer.add_string buf (row_to_json r))
    rows;
  Buffer.add_string buf "\n]\n";
  Buffer.contents buf

let write_file ~path rows =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_json rows))

(* --- a minimal JSON reader ------------------------------------------------ *)

(* The repo deliberately has no JSON dependency; this parser covers the
   full JSON grammar minimally so the gates check real syntax, not just
   our own printer's habits. *)
module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Bad of string

  let parse (s : string) : (t, string) result =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %c" c)
    in
    let literal word value =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        value
      end
      else fail (Printf.sprintf "expected %s" word)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec loop () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' -> (
            advance ();
            match peek () with
            | Some 'n' -> advance (); Buffer.add_char buf '\n'; loop ()
            | Some 't' -> advance (); Buffer.add_char buf '\t'; loop ()
            | Some 'r' -> advance (); Buffer.add_char buf '\r'; loop ()
            | Some 'b' -> advance (); Buffer.add_char buf '\b'; loop ()
            | Some 'f' -> advance (); Buffer.add_char buf '\012'; loop ()
            | Some ('"' | '\\' | '/') ->
                Buffer.add_char buf (Option.get (peek ()));
                advance ();
                loop ()
            | Some 'u' ->
                advance ();
                if !pos + 4 > n then fail "bad \\u escape";
                let hex = String.sub s !pos 4 in
                let code =
                  try int_of_string ("0x" ^ hex)
                  with _ -> fail "bad \\u escape"
                in
                pos := !pos + 4;
                (* non-ASCII escapes are preserved loosely; the bench
                   schema is ASCII-only so this path never fires on our
                   own files *)
                if code < 0x80 then Buffer.add_char buf (Char.chr code)
                else Buffer.add_char buf '?';
                loop ()
            | _ -> fail "bad escape")
        | Some c when Char.code c < 0x20 -> fail "control char in string"
        | Some c ->
            advance ();
            Buffer.add_char buf c;
            loop ()
      in
      loop ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let is_num_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while (match peek () with Some c -> is_num_char c | None -> false) do
        advance ()
      done;
      let tok = String.sub s start (!pos - start) in
      match float_of_string_opt tok with
      | Some f when Float.is_finite f -> f
      | _ -> fail (Printf.sprintf "bad number %S" tok)
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin advance (); Obj [] end
          else begin
            let rec members acc =
              skip_ws ();
              let key = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  members ((key, v) :: acc)
              | Some '}' ->
                  advance ();
                  List.rev ((key, v) :: acc)
              | _ -> fail "expected , or }"
            in
            Obj (members [])
          end
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin advance (); Arr [] end
          else begin
            let rec items acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  items (v :: acc)
              | Some ']' ->
                  advance ();
                  List.rev (v :: acc)
              | _ -> fail "expected , or ]"
            in
            Arr (items [])
          end
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> Num (parse_number ())
    in
    try
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then Error "trailing garbage after JSON value"
      else Ok v
    with Bad msg -> Error msg
end

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
