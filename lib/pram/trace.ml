(* Execution traces: the sequence of shared-memory accesses fired by the
   driver, in the (total) order in which they took effect.  One trace entry
   is one "step" in the paper's cost model. *)

type kind =
  | Read
  | Write

type access = {
  step : int;  (** global step index, starting at 0 *)
  pid : int;  (** process that performed the access *)
  reg_id : int;
  reg_name : string;
  kind : kind;
}

(* The dependency relation used by partial-order reduction (Explore's
   DPOR mode): two accesses conflict iff they are by different processes,
   touch the same register, and at least one writes it.  Everything else
   commutes — swapping adjacent independent accesses in a schedule yields
   the same execution state. *)
let dependent a b =
  a.pid <> b.pid && a.reg_id = b.reg_id && (a.kind = Write || b.kind = Write)

(* Encoded schedules (see Explore): action [p >= 0] steps process p,
   [-1 - p] crashes it (printed [!pN]). *)
let pp_encoded_action ppf a =
  if a >= 0 then Format.fprintf ppf "p%d" a
  else Format.fprintf ppf "!p%d" (-1 - a)

let pp_encoded_schedule ppf sched =
  Format.pp_print_list ~pp_sep:Format.pp_print_space pp_encoded_action ppf
    sched

(* Inverse of the printers above: whitespace-separated pN / !pN tokens.
   Counterexamples are printed in this syntax, so users can paste one
   straight back into a --replay flag. *)
let parse_encoded_action tok =
  let pid_of s =
    if String.length s >= 2 && s.[0] = 'p' then
      match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
      | Some p when p >= 0 -> Some p
      | _ -> None
    else None
  in
  if String.length tok >= 1 && tok.[0] = '!' then
    match pid_of (String.sub tok 1 (String.length tok - 1)) with
    | Some p -> Ok (-1 - p)
    | None -> Error (Printf.sprintf "bad crash action %S (expected !pN)" tok)
  else
    match pid_of tok with
    | Some p -> Ok p
    | None -> Error (Printf.sprintf "bad action %S (expected pN or !pN)" tok)

let parse_encoded_schedule s =
  let tokens =
    String.split_on_char ' ' s
    |> List.concat_map (String.split_on_char '\n')
    |> List.concat_map (String.split_on_char '\t')
    |> List.concat_map (String.split_on_char '\r')
    |> List.filter (fun t -> t <> "")
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | tok :: rest -> (
        match parse_encoded_action tok with
        | Ok a -> go (a :: acc) rest
        | Error msg -> Error msg)
  in
  go [] tokens
