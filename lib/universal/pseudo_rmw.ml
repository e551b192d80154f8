(* Pseudo read-modify-write objects (Anderson and Groselj [5], discussed
   in the paper's Related Work).

   Let F be a set of functions that COMMUTE with one another.  A pseudo
   read-modify-write instruction applies some f from F to the shared
   value but returns nothing; a separate [read] returns the current
   value.  Because the applied functions commute, the state is determined
   by the MULTISET of functions applied so far — a join-semilattice under
   per-process append-only logs (each process's log only grows, so two
   log vectors join pointwise by length).

   Implementation: one Section 6 scan over a vector of per-process logs.
   [pseudo_rmw] appends to the process's own log and publishes;
   [read] snapshots all logs and folds every function over the initial
   value (order irrelevant by commutativity).

   Unlike Anderson's construction this uses unbounded logs — consistent
   with the paper's own use of unbounded counters (see DESIGN.md). *)

module type FUNCTIONS = sig
  type value
  type f

  val init : value
  val apply : value -> f -> value
  (** All [f]s must commute: [apply (apply v f) g = apply (apply v g) f]. *)

  val equal_f : f -> f -> bool
  val pp_f : Format.formatter -> f -> unit
end

module Make (F : FUNCTIONS) (M : Pram.Memory.VERSIONED) = struct
  module Log = Semilattice.Grow_list (struct
    type t = F.f

    let equal = F.equal_f
    let pp = F.pp_f
  end)

  module Lat = Semilattice.Vector (Log)
  module Scanner = Snapshot.Scan.Make (Lat) (M)

  type t = {
    procs : int;
    scanner : Scanner.t;
    own_log : Log.t array;  (* private mirrors of each process's log *)
  }

  let create ~procs =
    {
      procs;
      scanner = Scanner.create ~variant:Snapshot.Scan.Optimized ~procs;
      own_log = Array.make procs Log.empty;
    }

  type handle = { obj : t; pid : int; scanner : Scanner.handle }

  let attach obj ctx =
    { obj; pid = Runtime.Ctx.pid ctx; scanner = Scanner.attach obj.scanner ctx }

  let pseudo_rmw h f =
    let t = h.obj in
    t.own_log.(h.pid) <- Log.append t.own_log.(h.pid) f;
    Scanner.write_l h.scanner
      (Lat.singleton ~width:t.procs h.pid t.own_log.(h.pid))

  let read h =
    let logs = Scanner.read_max h.scanner in
    Array.fold_left
      (fun acc log -> List.fold_left F.apply acc (Log.to_list log))
      F.init logs

  (* Number of operations applied so far, for tests. *)
  let applied_count h =
    let logs = Scanner.read_max h.scanner in
    Array.fold_left (fun acc log -> acc + Log.length log) 0 logs
end
