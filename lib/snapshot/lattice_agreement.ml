(* One-shot lattice agreement.

   The paper's Related Work (Section 2) points to LATTICE AGREEMENT [8]
   as "closely related to the semilattice construction we use in
   Section 6", and to Attiya-Rachman's O(n log n) snapshot built on it.
   This module implements the object and two algorithms:

   - [Via_scan]: lattice agreement is a one-liner on the Section 6 scan —
     propose v, return Scan(P, v).  Validity is immediate and
     comparability is Lemma 32.  Cost O(n^2) reads per propose.

   - [Classifier]: one descent of the Attiya-Rachman classifier tree
     ([Classifier_tree], the tree the Lattice scan descends once per
     generation).  Values are SETS of proposals (the join is union, and
     sets have the size measure the classifier thresholds need).  Cost
     O(n log n) reads per propose — the asymptotic improvement over the
     scan that Section 2 highlights (experiment E10).

   The object's guarantees, tested by qcheck and exhaustively on small
   configurations:
   - validity: own proposal <= output <= join of all proposals;
   - comparability: any two outputs are ordered by containment;
   - downward closure under real time: an output returned before another
     begins is contained in it. *)

(* Proposals are indexed by process id; a value is a set of pids (the
   proposals it contains), carrying the joined payloads implicitly: for
   lattice agreement over an arbitrary semilattice, map each pid to its
   proposed element and take the join of the members. *)
module Pid_set = Set.Make (Int)

module type S = sig
  type t

  val create : procs:int -> t

  type handle

  val attach : t -> Runtime.Ctx.t -> handle
  (** One process's session with the object. *)

  val propose : handle -> Pid_set.t -> Pid_set.t
  (** One-shot: call at most once per process.  The input set must
      contain the caller's pid (its own proposal); usually it is the
      singleton. *)

  val reads_per_propose : procs:int -> int
  (** Shared reads performed by one [propose] (exact, for E10). *)
end

module Via_scan (M : Pram.Memory.VERSIONED) : S = struct
  module Lat = struct
    type t = Pid_set.t

    let bottom = Pid_set.empty
    let join = Pid_set.union
    let equal = Pid_set.equal

    let pp ppf s =
      Format.fprintf ppf "{%a}"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
           Format.pp_print_int)
        (Pid_set.elements s)
  end

  module Scanner = Scan.Make (Lat) (M)

  type t = Scanner.t
  type handle = Scanner.handle

  let create ~procs = Scanner.create ~variant:Optimized ~procs
  let attach t ctx = Scanner.attach t ctx
  let propose h v = Scanner.scan h v

  let reads_per_propose ~procs =
    fst (Scan.cost_formula ~procs Optimized)
end

(* One stamp of a Classifier_tree: the proposal goes in as a unit map
   (its domain the proposed pid-set) and the agreed map's domain comes
   out. *)
module Classifier (M : Pram.Memory.S) : S = struct
  module Tree = Classifier_tree.Make (M)

  type t = { procs : int; tree : unit Tree.t }

  let create ~procs =
    if procs <= 0 then invalid_arg "Lattice_agreement.create: procs";
    { procs; tree = Tree.create ~name:"la" ~procs }

  type handle = { obj : t; pid : int }

  let attach obj ctx =
    let pid = Runtime.Ctx.pid ctx in
    if pid >= obj.procs then
      invalid_arg
        (Printf.sprintf
           "Lattice_agreement.attach: ctx pid %d but object has %d procs" pid
           obj.procs);
    { obj; pid }

  (* [Tree.descend] rejects a proposal without the caller's pid. *)
  let propose h v =
    let own = Array.make h.obj.procs None in
    Pid_set.iter
      (fun q ->
        if q < 0 || q >= h.obj.procs then
          invalid_arg "Lattice_agreement.propose: pid out of range";
        own.(q) <- Some ())
      v;
    Tree.descend h.obj.tree ~stamp:1 ~pid:h.pid own
    |> Array.to_seqi
    |> Seq.filter_map (fun (q, e) -> Option.map (fun () -> q) e)
    |> Pid_set.of_seq

  let reads_per_propose ~procs = Classifier_tree.levels ~procs * procs
end

(* Validity and comparability checks shared by the tests and E10. *)
let valid ~own ~all output =
  Pid_set.subset own output && Pid_set.subset output all

let comparable a b = Pid_set.subset a b || Pid_set.subset b a
