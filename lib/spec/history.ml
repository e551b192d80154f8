(* Concurrent histories (Section 3.2).

   A history is the sequence of invocation and response events observed at
   the boundary of an object.  Harnesses record one event per call edge;
   the order of the list is the real-time order (in the simulator, the
   global scheduling order; on domains, a fetch-and-add ticket).

   [Lincheck] consumes these histories; [complete]/[pending] implement the
   paper's well-formedness vocabulary. *)

type ('op, 'resp) event =
  | Invoke of { pid : int; op : 'op }
  | Return of { pid : int; resp : 'resp }

(* One operation as reconstructed from a well-formed history: its
   invocation position, and its response (with position) unless pending. *)
type ('op, 'resp) call = {
  c_pid : int;
  c_op : 'op;
  c_inv : int;  (** index of the invocation event *)
  c_ret : int option;  (** index of the matching response event *)
  c_resp : 'resp option;
}

exception Malformed of string

(* Pair invocations with matching responses, per process.  Raises
   [Malformed] if some process's subhistory does not alternate
   invocation/response (Section 3.2's well-formedness). *)
let calls_of_events events =
  let open_calls = Hashtbl.create 16 in
  let finished = ref [] in
  List.iteri
    (fun idx ev ->
      match ev with
      | Invoke { pid; op } ->
          if Hashtbl.mem open_calls pid then
            raise
              (Malformed
                 (Printf.sprintf "process %d invoked while a call is pending"
                    pid));
          Hashtbl.add open_calls pid
            { c_pid = pid; c_op = op; c_inv = idx; c_ret = None; c_resp = None }
      | Return { pid; resp } -> (
          match Hashtbl.find_opt open_calls pid with
          | None ->
              raise
                (Malformed
                   (Printf.sprintf "process %d returned without invocation" pid))
          | Some call ->
              Hashtbl.remove open_calls pid;
              finished :=
                { call with c_ret = Some idx; c_resp = Some resp } :: !finished))
    events;
  let pending = Hashtbl.fold (fun _ c acc -> c :: acc) open_calls [] in
  let all = List.rev_append !finished pending in
  List.sort (fun a b -> compare a.c_inv b.c_inv) all

let is_pending c = c.c_ret = None

(* Real-time precedence (the [<_H] order of Section 3.2): a call precedes
   another if its response occurs before the other's invocation. *)
let precedes a b = match a.c_ret with Some r -> r < b.c_inv | None -> false

(* The recorder: events carry a globally ordered ticket taken with an
   atomic fetch-and-add at the event's linearization-relevant instant,
   so domains may record concurrently.  On one domain (simulator
   fibers) ticket order is call order. *)
module Recorder = struct
  type ('op, 'resp) stamped = { ticket : int; event : ('op, 'resp) event }
  type ('op, 'resp) t = {
    ticket_source : int Atomic.t;
    cells : ('op, 'resp) stamped list Atomic.t;
  }

  let create () = { ticket_source = Atomic.make 0; cells = Atomic.make [] }

  let push t event =
    let ticket = Atomic.fetch_and_add t.ticket_source 1 in
    let rec loop () =
      let old = Atomic.get t.cells in
      if not (Atomic.compare_and_set t.cells old ({ ticket; event } :: old))
      then loop ()
    in
    loop ()

  let invoke t ~pid op = push t (Invoke { pid; op })
  let return t ~pid resp = push t (Return { pid; resp })

  let record t ~pid op run =
    invoke t ~pid op;
    let resp = run () in
    return t ~pid resp;
    resp

  let events t =
    Atomic.get t.cells
    |> List.sort (fun a b -> compare a.ticket b.ticket)
    |> List.map (fun s -> s.event)
end

let pp_event pp_op pp_resp ppf = function
  | Invoke { pid; op } -> Format.fprintf ppf "p%d? %a" pid pp_op op
  | Return { pid; resp } -> Format.fprintf ppf "p%d! %a" pid pp_resp resp

let pp pp_op pp_resp ppf events =
  Format.pp_print_list ~pp_sep:Format.pp_print_newline
    (pp_event pp_op pp_resp) ppf events
