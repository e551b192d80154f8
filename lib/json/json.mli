(** JSON values, with the repo's one reader and one printer.

    Bench files ([Experiments.Bench_json]) and trace archives
    ([Tracing.save]) are both written by {!to_string} and read back by
    {!parse}, so every value this repo prints round-trips exactly:
    strings byte for byte, numbers to the same float. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** members in input order *)

(** [parse s] reads exactly one JSON value (RFC 8259), with surrounding
    whitespace.  Numbers follow the RFC grammar — no leading [+], no
    leading zeros, a digit on both sides of the [.] — and must be
    finite; unicode escapes decode to UTF-8. *)
val parse : string -> (t, string) result

(** [to_string v] prints [v] on one line, as [{"k": v, "k2": [1, 2]}].
    An integral number below [1e15] prints as an integer; any other
    number prints as the shortest [%g] decimal that reads back to the
    same float.  Strings escape control characters, the double quote
    and the backslash; other bytes pass through.
    @raise Invalid_argument on a non-finite number. *)
val to_string : t -> string
