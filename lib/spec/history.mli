(** Concurrent histories (Section 3.2): invocation/response event
    sequences recorded at an object's boundary, in real-time order.

    Harnesses record events with {!Recorder}, on simulator fibers (the
    global scheduling order is the real-time order) and on domains
    alike (an atomic ticket stamps each event); {!Lincheck} consumes
    the result. *)

type ('op, 'resp) event =
  | Invoke of { pid : int; op : 'op }
  | Return of { pid : int; resp : 'resp }

(** One operation reconstructed from a well-formed history. *)
type ('op, 'resp) call = {
  c_pid : int;
  c_op : 'op;
  c_inv : int;  (** index of the invocation event *)
  c_ret : int option;  (** index of the matching response, if any *)
  c_resp : 'resp option;
}

exception Malformed of string

(** Pair invocations with their responses.
    @raise Malformed if some process's subhistory does not alternate
    invocations and responses (well-formedness, Section 3.2). *)
val calls_of_events : ('op, 'resp) event list -> ('op, 'resp) call list

val is_pending : ('op, 'resp) call -> bool

(** Real-time precedence: [precedes a b] iff [a]'s response occurs before
    [b]'s invocation (the paper's [<_H]). *)
val precedes : ('op, 'resp) call -> ('op, 'resp) call -> bool

(** Domain-safe recorder: events are ordered by an atomic
    fetch-and-add ticket, which on one domain is call order. *)
module Recorder : sig
  type ('op, 'resp) t

  val create : unit -> ('op, 'resp) t
  val invoke : ('op, 'resp) t -> pid:int -> 'op -> unit
  val return : ('op, 'resp) t -> pid:int -> 'resp -> unit

  (** [record t ~pid op run]: bracket [run ()] with invocation and
      response events; returns [run ()]'s result. *)
  val record : ('op, 'resp) t -> pid:int -> 'op -> (unit -> 'resp) -> 'resp

  val events : ('op, 'resp) t -> ('op, 'resp) event list
end

val pp :
  (Format.formatter -> 'op -> unit) ->
  (Format.formatter -> 'resp -> unit) ->
  Format.formatter ->
  ('op, 'resp) event list ->
  unit
