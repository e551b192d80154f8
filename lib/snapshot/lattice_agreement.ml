(* One-shot lattice agreement.

   The paper's Related Work (Section 2) points to LATTICE AGREEMENT [8]
   as "closely related to the semilattice construction we use in
   Section 6", and to Attiya-Rachman's O(n log n) snapshot built on it.
   This module implements the object and two algorithms:

   - [Via_scan]: lattice agreement is a one-liner on the Section 6 scan —
     propose v, return Scan(P, v).  Validity is immediate and
     comparability is Lemma 32.  Cost O(n^2) reads per propose.

   - [Classifier]: the Attiya-Rachman style classifier tree.  Values are
     SETS of proposals (the join is union, and sets have the size measure
     the classifier thresholds need).  Processes descend a binary tree of
     depth log2 n; the vertex at threshold k routes a process right —
     taking the union of everything it saw at the vertex — if that union
     has more than k proposals, and left — keeping its value — otherwise.
     Registers at a vertex are write-once per process, so the set of
     written slots grows monotonically, which yields the classifier
     property: a left-exiter's value is contained in every right-exiter's
     value, and the union of left-exiters' values has at most k
     proposals.  Cost O(n log n) reads per propose — the asymptotic
     improvement over the scan that Section 2 highlights (experiment
     E10).

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

module Classifier (M : Pram.Memory.S) : S = struct
  (* The tree is addressed by (depth, index); the vertex's threshold is
     the midpoint of its pid-count interval.  Depth runs 0 .. levels-1
     where levels = ceil(log2 procs); at the end every process outputs
     its current value. *)
  type vertex = { slots : Pid_set.t option M.reg array }

  type t = {
    procs : int;
    levels : int;
    vertices : vertex array array;  (* vertices.(depth).(index) *)
  }

  let levels_for procs =
    let rec go l = if 1 lsl l >= procs then l else go (l + 1) in
    go 0

  let create ~procs =
    if procs <= 0 then invalid_arg "Lattice_agreement.create: procs";
    let levels = levels_for procs in
    {
      procs;
      levels;
      vertices =
        Array.init levels (fun d ->
            Array.init (1 lsl d) (fun i ->
                {
                  slots =
                    Array.init procs (fun p ->
                        M.create
                          ~name:(Printf.sprintf "la[%d][%d][%d]" d i p)
                          None);
                }));
    }

  (* Threshold of vertex (depth d, index i): the midpoint of its
     interval of [0, procs] after d binary splits. *)
  let threshold t ~depth ~index =
    let width = float_of_int t.procs /. float_of_int (1 lsl (depth + 1)) in
    let lo = float_of_int t.procs *. float_of_int index /. float_of_int (1 lsl depth) in
    lo +. width

  let classify t ~pid ~depth ~index v =
    let vx = t.vertices.(depth).(index) in
    M.write vx.slots.(pid) (Some v);
    let union = ref v in
    for q = 0 to t.procs - 1 do
      match M.read vx.slots.(q) with
      | Some w -> union := Pid_set.union !union w
      | None -> ()
    done;
    let k = threshold t ~depth ~index in
    if float_of_int (Pid_set.cardinal !union) > k then (`Right, !union)
    else (`Left, v)

  type handle = { obj : t; pid : int }

  let attach obj ctx =
    let pid = Runtime.Ctx.pid ctx in
    if pid >= obj.procs then
      invalid_arg
        (Printf.sprintf
           "Lattice_agreement.attach: ctx pid %d but object has %d procs" pid
           obj.procs);
    { obj; pid }

  let propose h v =
    let t = h.obj and pid = h.pid in
    if not (Pid_set.mem pid v) then
      invalid_arg "Lattice_agreement.propose: value must contain own pid";
    let value = ref v in
    let index = ref 0 in
    for depth = 0 to t.levels - 1 do
      let dir, v' = classify t ~pid ~depth ~index:!index !value in
      value := v';
      index := (2 * !index) + match dir with `Left -> 0 | `Right -> 1
    done;
    !value

  let reads_per_propose ~procs = levels_for procs * procs
end

(* Validity and comparability checks shared by the tests and E10. *)
let valid ~own ~all output =
  Pid_set.subset own output && Pid_set.subset output all

let comparable a b = Pid_set.subset a b || Pid_set.subset b a
