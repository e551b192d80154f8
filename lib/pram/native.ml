(* Native multicore backend.

   Provides the same [Memory.S] interface as the simulator, implemented
   with [Atomic] references, plus a [spawn]/[join] helper for running
   one OCaml domain per process.  This backend demonstrates that the algorithms are not
   simulator artifacts and supplies the wall-clock Bechamel benches.

   [Atomic.t] gives sequentially consistent single-cell reads and writes —
   exactly the atomic-register semantics of the asynchronous PRAM model.
   Values stored are immutable OCaml values, so publication is safe.

   Registers are padded to cache-line granularity ([Padding]): the
   algorithms allocate whole arrays of registers at once (grid rows,
   anchor slots), which would otherwise pack several logically-private
   single-writer registers into one line and serialize unrelated
   domains on coherence traffic. *)

module Mem : Memory.S with type 'a reg = 'a Atomic.t = struct
  type 'a reg = 'a Atomic.t

  let create ?name init =
    ignore name;
    Padding.padded_atomic init

  let read = Atomic.get
  let write = Atomic.set
end

(* Observation hook for seqlock read retries in [Versioned].  This
   layer cannot see the telemetry library (pram sits below it), so
   contention attribution is injected: [Runtime.install_native_hooks]
   points this at the sink's [seqlock_retry] counter for the duration
   of a native run.  Only the stale-slot slow path dereferences it. *)
let on_seqlock_retry : (unit -> unit) ref = ref (fun () -> ())

(* Seqlock-style versioned single-writer registers.

   Layout: a padded atomic [version] plus a plain mutable [slot]
   pointing at an immutable {v; e} record.  The writer publishes the
   new slot first, then releases the matching version:

     write:  slot <- {v; e = n+1};  Atomic.set version (n+1)

   A reader anchors freshness on the atomic ([Atomic.get] is an
   acquire in OCaml 5's memory model: it transfers the writer's
   preceding plain store of [slot]) and then takes ONE plain load of
   the slot pointer.  Because the record is immutable, whatever slot
   pointer the load returns is a fully initialized, internally
   consistent (value, epoch) pair — OCaml guarantees publication
   safety for immutable fields, so a torn observation shows up only as
   [slot.e < anchor], never as a mismatched pair.  On that torn epoch
   the reader backs off with [Domain.cpu_relax] (reporting through
   [on_seqlock_retry]) and reloads; the writer's store is already
   globally ordered before the version it released, so the retry loop
   is bounded by store visibility, not by writer progress.

   Compared to holding an [Atomic] pair, the collect path does one
   atomic load per slot instead of participating in the SC order for
   the value itself, and [read_versioned] returns the stored record —
   no per-read allocation, which the zero-alloc scan fast path
   requires.

   Single-writer only: the epoch is derived from the writer's own last
   publish, so concurrent writers to one register would race the
   epoch.  Every register the snapshot stack allocates (grid rows,
   anchor slots, escalation flags) is single-writer, per Section 6. *)
module Versioned : Memory.VERSIONED = struct
  type 'a versioned = { v : 'a; e : int }
  type 'a reg = { version : int Atomic.t; mutable slot : 'a versioned }

  let create ?name init =
    ignore name;
    Padding.copy_as_padded
      { version = Padding.padded_atomic 0; slot = { v = init; e = 0 } }

  let read_versioned r =
    let anchor = Atomic.get r.version in
    let rec fresh () =
      let s = r.slot in
      if s.e >= anchor then s
      else begin
        !on_seqlock_retry ();
        Domain.cpu_relax ();
        fresh ()
      end
    in
    fresh ()

  let value s = s.v
  let version s = s.e
  let read r = (read_versioned r).v
  let epoch r = Atomic.get r.version

  let write r v =
    let e = Atomic.get r.version + 1 in
    r.slot <- { v; e };
    Atomic.set r.version e
end

(* Run [body p] for p = 0..procs-1, each in its own domain, and return the
   results in pid order.  The caller is responsible for keeping [procs]
   within the machine's recommended domain count. *)
let run_parallel ~procs body =
  let domains =
    List.init procs (fun p -> Domain.spawn (fun () -> body p))
  in
  List.map Domain.join domains

let recommended_procs () =
  max 2 (min 8 (Domain.recommended_domain_count ()))
