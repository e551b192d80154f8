(* The repo deliberately has no JSON dependency.  The reader covers the
   full grammar, so checks of our own output test real JSON rather than
   the printer's habits. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* --- printer ------------------------------------------------------------- *)

let number v =
  if not (Float.is_finite v) then invalid_arg "Json: non-finite number";
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else
    let rec shortest p =
      let s = Printf.sprintf "%.*g" p v in
      if p >= 17 || float_of_string s = v then s else shortest (p + 1)
    in
    shortest 1

let add_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let to_string v =
  let buf = Buffer.create 256 in
  let seq openc closec add_item items =
    Buffer.add_char buf openc;
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_string buf ", ";
        add_item item)
      items;
    Buffer.add_char buf closec
  in
  let rec add = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Num f -> Buffer.add_string buf (number f)
    | Str s -> add_string buf s
    | Arr items -> seq '[' ']' add items
    | Obj members ->
        seq '{' '}'
          (fun (k, v) ->
            add_string buf k;
            Buffer.add_string buf ": ";
            add v)
          members
  in
  add v;
  Buffer.contents buf

(* --- reader -------------------------------------------------------------- *)

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
      | Some '\\' ->
          advance ();
          let unescaped c =
            advance ();
            Buffer.add_char buf c;
            loop ()
          in
          (match peek () with
          | Some 'n' -> unescaped '\n'
          | Some 't' -> unescaped '\t'
          | Some 'r' -> unescaped '\r'
          | Some 'b' -> unescaped '\b'
          | Some 'f' -> unescaped '\012'
          | Some (('"' | '\\' | '/') as c) -> unescaped c
          | Some 'u' ->
              advance ();
              let hex4 at =
                let is_hex = function
                  | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
                  | _ -> false
                in
                if at + 4 <= n && String.for_all is_hex (String.sub s at 4)
                then Some (int_of_string ("0x" ^ String.sub s at 4))
                else None
              in
              let code =
                match hex4 !pos with
                | Some c -> c
                | None -> fail "bad \\u escape"
              in
              pos := !pos + 4;
              (* a high surrogate escaped right before a low one is one
                 code point; any other surrogate reads as U+FFFD *)
              let code =
                match hex4 (!pos + 2) with
                | Some lo
                  when code land 0xFC00 = 0xD800
                       && lo land 0xFC00 = 0xDC00
                       && String.sub s !pos 2 = "\\u" ->
                    pos := !pos + 6;
                    0x10000 + ((code - 0xD800) lsl 10) + (lo - 0xDC00)
                | _ -> code
              in
              Buffer.add_utf_8_uchar buf
                (if Uchar.is_valid code then Uchar.of_int code else Uchar.rep);
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
  (* RFC 8259: -? (0 | [1-9][0-9]* ) (. [0-9]+)? ([eE] [+-]? [0-9]+)? *)
  let parse_number () =
    let start = !pos in
    let digits () =
      let first = !pos in
      while match peek () with Some '0' .. '9' -> true | _ -> false do
        advance ()
      done;
      if !pos = first then fail "expected a digit"
    in
    if peek () = Some '-' then advance ();
    if peek () = Some '0' then advance () else digits ();
    if peek () = Some '.' then begin
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ());
    let tok = String.sub s start (!pos - start) in
    let f = float_of_string tok in
    if Float.is_finite f then f
    else fail (Printf.sprintf "number %S overflows" tok)
  in
  (* the items of an array or object, after its opening bracket *)
  let items close item =
    advance ();
    skip_ws ();
    if peek () = Some close then begin
      advance ();
      []
    end
    else
      let rec loop acc =
        let v = item () in
        skip_ws ();
        match peek () with
        | Some ',' ->
            advance ();
            skip_ws ();
            loop (v :: acc)
        | Some c when c = close ->
            advance ();
            List.rev (v :: acc)
        | _ -> fail (Printf.sprintf "expected , or %c" close)
      in
      loop []
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        Obj
          (items '}' (fun () ->
               let key = parse_string () in
               skip_ws ();
               expect ':';
               (key, parse_value ())))
    | Some '[' -> Arr (items ']' parse_value)
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> Num (parse_number ())
    | Some c -> fail (Printf.sprintf "unexpected %C" c)
  in
  try
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then Error "trailing garbage after JSON value" else Ok v
  with Bad msg -> Error msg
