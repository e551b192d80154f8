(* Call counters for the traced run, wrapped around the two functor
   arguments the benchmark passes to [Universal.Store.Make]: the spec [O]
   and the memory [M].  Each wrapper bumps a plain mutable int and calls
   through, so it allocates nothing and the traced run's
   [gc.minor_words_per_op] matches the untraced one.  The benchmark runs
   every store on one domain, so unsynchronized counters are exact.

   Calls are counted, never timed: each takes nanoseconds and runs up to
   ~2.5k times per store op, so a timer around it would measure itself. *)

module Count = struct
  let commutes = ref 0
  let apply = ref 0
  let reads_only = ref 0
  let reads = ref 0
  let writes = ref 0
end

module Spec (O : Spec.Object_spec.S) :
  Spec.Object_spec.S
    with type state = O.state
     and type operation = O.operation
     and type response = O.response = struct
  include O

  let apply s op =
    incr Count.apply;
    O.apply s op

  let commutes p q =
    incr Count.commutes;
    O.commutes p q

  let reads_only p =
    incr Count.reads_only;
    O.reads_only p
end

(* Every register operation is one shared-memory access in the paper's
   cost model; [epoch] included. *)
module Mem (M : Pram.Memory.VERSIONED) : Pram.Memory.VERSIONED = struct
  include M

  let read r =
    incr Count.reads;
    M.read r

  let read_versioned r =
    incr Count.reads;
    M.read_versioned r

  let epoch r =
    incr Count.reads;
    M.epoch r

  let write r v =
    incr Count.writes;
    M.write r v
end
