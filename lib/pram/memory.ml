(* The portable shared-memory interface.

   Every algorithm in this repository is a functor over [Memory.S] (or
   [VERSIONED]), so the same source code runs (a) deterministically under
   the simulator, where each access is an effect intercepted by [Driver],
   and (b) in parallel on OCaml 5 domains, on the seqlock registers of
   [Native.Versioned]. *)

module type S = sig
  type 'a reg

  val create : ?name:string -> 'a -> 'a reg
  val read : 'a reg -> 'a
  val write : 'a reg -> 'a -> unit
end

(* Simulator backend: registers are [Register.t]; accesses suspend the
   current fiber via the effects in [Sim_effects].  Code using this module
   must run inside [Driver]. *)
module Sim : S with type 'a reg = 'a Register.t = struct
  type 'a reg = 'a Register.t

  let create ?name init = Register.make ?name init
  let read r = Effect.perform (Sim_effects.Read r)
  let write r v = Effect.perform (Sim_effects.Write (r, v))
end

(* Direct backend: immediate, unscheduled access.  For sequential unit
   tests and single-threaded library use outside [Driver]; running
   algorithms against it is equivalent to a solo execution. *)
module Direct : S with type 'a reg = 'a Register.t = struct
  type 'a reg = 'a Register.t

  let create ?name init = Register.make ?name init
  let read = Register.get
  let write = Register.set
end

(* Versioned single-writer registers.

   A versioned register is an atomic register whose writes additionally
   bump a per-register epoch counter, and whose reads can return the
   (value, epoch) pair consistently.  The adaptive scan (Snapshot.Scan's
   [Adaptive] variant) collects peers' registers once and then
   revalidates the epoch vector: if no epoch moved, no write landed in
   the window and the cheap collect was already atomic.

   The representation of a read is backend-abstract ([versioned] with
   [value]/[version] projections) so that the native seqlock backend can
   hand back its internal slot record without allocating a tuple — the
   uncontended scan path must be allocation-free.

   Only the register's single writer may call [write]: the epoch source
   is writer-local state, which is exactly the single-writer register
   discipline of the paper's Section 6 grid. *)
module type VERSIONED = sig
  include S

  type 'a versioned

  val read_versioned : 'a reg -> 'a versioned
  val value : 'a versioned -> 'a
  val version : 'a versioned -> int
  val epoch : 'a reg -> int
end

(* The pair twin behind [Sim_v] and [Direct_v]: the underlying register
   holds the (value, epoch) pair, so every versioned operation is exactly
   ONE scheduled access — DPOR dependency tracking and the sim cost model
   see the same access sequence whichever projection the reader uses.
   The writer-local [next] field never touches shared memory. *)
module Versioned (M : S) : VERSIONED = struct
  type 'a reg = { cell : ('a * int) M.reg; mutable next : int }
  type 'a versioned = 'a * int

  let create ?name init = { cell = M.create ?name (init, 0); next = 0 }
  let read r = fst (M.read r.cell)

  let write r v =
    r.next <- r.next + 1;
    M.write r.cell (v, r.next)

  let read_versioned r = M.read r.cell
  let value = fst
  let version = snd
  let epoch r = snd (M.read r.cell)
end

(* The two instantiations, applied once so call sites share their
   abstract types. *)
module Sim_v = Versioned (Sim)
module Direct_v = Versioned (Direct)

(* Stamped write-once slots.

   A slot is a single-writer register carrying at most one payload per
   STAMP (a generation number).  [post] publishes a payload under a
   stamp; [peek] returns it only while the slot still holds that exact
   stamp, so readers from other generations see the slot as empty.
   Posting a newer stamp recycles the slot in place — the storage for
   the Lattice scan's classifier trees, where each generation needs a
   logically fresh write-once tree but the register pool is bounded.

   The write-once discipline is the caller's: the slot's single writer
   posts at most once per stamp (the classifier descent visits each
   vertex once per generation).  Either operation is exactly ONE
   scheduled access, like the [Versioned] twin, so the sim cost model
   and DPOR dependency tracking see one access per post/peek. *)
module Stamped_slot (M : S) = struct
  type 'a slot = (int * 'a) option M.reg

  let make ?name () = M.create ?name None
  let post s ~stamp v = M.write s (Some (stamp, v))

  let peek s ~stamp =
    match M.read s with
    | Some (st, v) when st = stamp -> Some v
    | _ -> None

  let stamp s = match M.read s with Some (st, _) -> st | None -> 0
end

(* Hook interface for instrumentation wrappers.  Hooks receive the
   wrapper-assigned register identity; ids are allocated atomically so the
   wrapper is usable over the native domains backend. *)
module type Hooks = sig
  val on_create : reg_id:int -> reg_name:string -> unit
  val on_read : reg_id:int -> reg_name:string -> unit
  val on_write : reg_id:int -> reg_name:string -> unit
end

(* Wrap a versioned backend with access hooks.  This is the generic
   "counters behind a functor" mechanism: the unwrapped backends pay
   nothing, and an instrumented instantiation is a separate module the
   caller opts into (see Runtime.Instrument).  Hooks fire when the access
   completes at this layer: after the underlying read returns and after
   the underlying write is applied.  [read], [read_versioned] and [epoch]
   are each one access, so each fires [on_read] once.  Under [Sim_v] that
   is invocation order, not firing order — prefer the [Driver] observer
   for scheduled executions. *)
module Hooked (M : VERSIONED) (H : Hooks) : VERSIONED = struct
  type 'a reg = { r : 'a M.reg; id : int; name : string }
  type 'a versioned = 'a M.versioned

  let next_id = Atomic.make 0

  let create ?name init =
    let id = 1 + Atomic.fetch_and_add next_id 1 in
    let name =
      match name with Some n -> n | None -> Printf.sprintf "h%d" id
    in
    let r = M.create ~name init in
    H.on_create ~reg_id:id ~reg_name:name;
    { r; id; name }

  let read rg =
    let v = M.read rg.r in
    H.on_read ~reg_id:rg.id ~reg_name:rg.name;
    v

  let read_versioned rg =
    let v = M.read_versioned rg.r in
    H.on_read ~reg_id:rg.id ~reg_name:rg.name;
    v

  let value = M.value
  let version = M.version

  let epoch rg =
    let e = M.epoch rg.r in
    H.on_read ~reg_id:rg.id ~reg_name:rg.name;
    e

  let write rg v =
    M.write rg.r v;
    H.on_write ~reg_id:rg.id ~reg_name:rg.name
end
