(* Type-specific optimizations (Section 5.4's closing remark).

   The generic Figure 4 construction keeps the whole precedence graph;
   for concrete data types "it should be possible to apply type-specific
   optimizations to discard most of the precedence graph".  These modules
   do exactly that: they represent the object's state directly as a
   join-semilattice and use the Section 6 scan, so an operation costs one
   scan — O(n^2) reads, O(n) writes — and NO graph maintenance, with
   memory independent of the operation count.

   The encodings:
   - counter (inc/dec, no reset): per-process pairs of monotone totals
     (inc_sum, dec_sum); the join is the pointwise max, sound because
     each process's totals only grow; value = sum of (inc - dec);
   - grow-only set (add/members): set union;
   - max register / logical clock: max.

   Each module follows the handle convention: [attach t ctx] mints one
   process's session (including the underlying scan session, which
   inherits the context's instrumentation), and operations take the
   handle only.  Every object runs the [Optimized] scan: n(n+1)
   registers, n^2-1 reads and n+1 writes per scan.

   Experiment E9 measures these against the generic construction. *)

module Counter (M : Pram.Memory.VERSIONED) = struct
  module Totals = Semilattice.Pair (Semilattice.Nat_max) (Semilattice.Nat_max)
  module Lat = Semilattice.Vector (Totals)
  module Scanner = Snapshot.Scan.Make (Lat) (M)

  type t = {
    procs : int;
    scanner : Scanner.t;
    inc_total : int array;  (* private per-process running totals *)
    dec_total : int array;
  }

  let create ~procs =
    {
      procs;
      scanner = Scanner.create ~variant:Snapshot.Scan.Optimized ~procs;
      inc_total = Array.make procs 0;
      dec_total = Array.make procs 0;
    }

  type handle = { obj : t; pid : int; scanner : Scanner.handle }

  let attach obj ctx =
    { obj; pid = Runtime.Ctx.pid ctx; scanner = Scanner.attach obj.scanner ctx }

  let publish h =
    let t = h.obj in
    let contribution =
      Lat.singleton ~width:t.procs h.pid
        (t.inc_total.(h.pid), t.dec_total.(h.pid))
    in
    Scanner.write_l h.scanner contribution

  let inc h amount =
    if amount < 0 then invalid_arg "Direct.Counter.inc: negative amount";
    h.obj.inc_total.(h.pid) <- h.obj.inc_total.(h.pid) + amount;
    publish h

  let dec h amount =
    if amount < 0 then invalid_arg "Direct.Counter.dec: negative amount";
    h.obj.dec_total.(h.pid) <- h.obj.dec_total.(h.pid) + amount;
    publish h

  let read h =
    let totals = Scanner.read_max h.scanner in
    Array.fold_left (fun acc (i, d) -> acc + i - d) 0 totals
end

module Gset (M : Pram.Memory.VERSIONED) = struct
  module Lat = Semilattice.Set_union (struct
    type t = int

    let compare = Int.compare
    let pp = Format.pp_print_int
  end)

  module Scanner = Snapshot.Scan.Make (Lat) (M)

  type t = Scanner.t
  type handle = Scanner.handle

  let create ~procs = Scanner.create ~variant:Snapshot.Scan.Optimized ~procs
  let attach t ctx = Scanner.attach t ctx
  let add h x = Scanner.write_l h (Lat.of_list [ x ])
  let members h = Lat.elements (Scanner.read_max h)

  let mem h x = List.mem x (members h)
end

module Max_register (M : Pram.Memory.VERSIONED) = struct
  module Scanner = Snapshot.Scan.Make (Semilattice.Nat_max) (M)

  type t = Scanner.t
  type handle = Scanner.handle

  let create ~procs = Scanner.create ~variant:Snapshot.Scan.Optimized ~procs
  let attach t ctx = Scanner.attach t ctx

  let write_max h v =
    if v < 0 then invalid_arg "Direct.Max_register: negative value";
    Scanner.write_l h v

  let read_max = Scanner.read_max
end

(* Lamport logical clocks [33] on the max register: [tick] produces a
   timestamp strictly larger than every timestamp this process has
   observed; [observe] folds in a remote timestamp (e.g. carried on a
   message); [now] reads without advancing.

   Ticks by concurrent processes may collide; following Lamport, callers
   who need a total order break ties by process id — [tick] returns the
   (timestamp, pid) pair ready for lexicographic comparison.  Causally
   ordered events always get strictly increasing timestamps: causality
   flows through [observe]/[tick], each of which joins the clock before
   bumping it. *)
module Logical_clock (M : Pram.Memory.VERSIONED) = struct
  module R = Max_register (M)

  type t = { reg : R.t }
  type timestamp = int * int  (* (count, pid): compare lexicographically *)

  let create ~procs = { reg = R.create ~procs }

  type handle = { pid : int; rh : R.handle }

  let attach t ctx = { pid = Runtime.Ctx.pid ctx; rh = R.attach t.reg ctx }

  let tick h : timestamp =
    let c = R.read_max h.rh in
    R.write_max h.rh (c + 1);
    (c + 1, h.pid)

  let observe h (c, _ : timestamp) = R.write_max h.rh c
  let now h = R.read_max h.rh
  let compare_ts (a : timestamp) (b : timestamp) = compare a b
end

(* A keyed histogram: per-process per-bucket monotone totals, merged by
   pointwise max.  The direct counterpart of [Spec.Histogram_spec]
   restricted to its commuting core (observe/count/total; reset_all needs
   the generic construction, exactly like the counter's reset). *)
module Histogram (M : Pram.Memory.VERSIONED) = struct
  module Buckets = Semilattice.Map_max (struct
    type t = int

    let compare = Int.compare
    let pp = Format.pp_print_int
  end)

  module Lat = Semilattice.Vector (Buckets)
  module Scanner = Snapshot.Scan.Make (Lat) (M)

  type t = {
    procs : int;
    scanner : Scanner.t;
    own : Buckets.t array;  (* private per-process bucket totals *)
  }

  let create ~procs =
    {
      procs;
      scanner = Scanner.create ~variant:Snapshot.Scan.Optimized ~procs;
      own = Array.make procs Buckets.bottom;
    }

  type handle = { obj : t; pid : int; scanner : Scanner.handle }

  let attach obj ctx =
    { obj; pid = Runtime.Ctx.pid ctx; scanner = Scanner.attach obj.scanner ctx }

  let observe h ~bucket weight =
    if weight < 0 then invalid_arg "Direct.Histogram.observe: negative weight";
    let t = h.obj and pid = h.pid in
    t.own.(pid) <-
      Buckets.add bucket (Buckets.find bucket t.own.(pid) + weight) t.own.(pid);
    Scanner.write_l h.scanner (Lat.singleton ~width:t.procs pid t.own.(pid))

  let merged h =
    let per_proc = Scanner.read_max h.scanner in
    Array.fold_left
      (fun acc m ->
        List.fold_left
          (fun acc (b, v) -> Buckets.add b (Buckets.find b acc + v) acc)
          acc (Buckets.bindings m))
      Buckets.bottom per_proc

  let count h ~bucket = Buckets.find bucket (merged h)

  let total h =
    List.fold_left (fun acc (_, v) -> acc + v) 0 (Buckets.bindings (merged h))

  let bindings h = Buckets.bindings (merged h)
end

(* Vector clocks: the per-process causal-time vectors of distributed
   systems, realized on the snapshot lattice Vector(Nat_max).  [tick]
   advances the caller's component; [observe] merges a vector received
   from elsewhere; [now] reads the merged vector.  [leq] is the
   happened-before test. *)
module Vector_clock (M : Pram.Memory.VERSIONED) = struct
  module Lat = Semilattice.Vector (Semilattice.Nat_max)
  module Scanner = Snapshot.Scan.Make (Lat) (M)

  type t = {
    procs : int;
    scanner : Scanner.t;
    own_count : int array;  (* private: own component *)
  }

  let create ~procs =
    {
      procs;
      scanner = Scanner.create ~variant:Snapshot.Scan.Optimized ~procs;
      own_count = Array.make procs 0;
    }

  type handle = { obj : t; pid : int; scanner : Scanner.handle }

  let attach obj ctx =
    { obj; pid = Runtime.Ctx.pid ctx; scanner = Scanner.attach obj.scanner ctx }

  let tick h =
    let t = h.obj in
    t.own_count.(h.pid) <- t.own_count.(h.pid) + 1;
    Scanner.scan h.scanner
      (Lat.singleton ~width:t.procs h.pid t.own_count.(h.pid))

  let observe h v = Scanner.write_l h.scanner v

  let now h =
    let v = Scanner.read_max h.scanner in
    if Array.length v = 0 then Array.make h.obj.procs 0 else v

  let leq a b =
    Array.length a = Array.length b
    && Array.for_all2 (fun x y -> x <= y) a b

  let concurrent a b = (not (leq a b)) && not (leq b a)
end
