(* Atomic snapshots of an array of single-writer slots, built on the
   Section 6 scan exactly as the paper describes at the end of Section 6.1:

     "we make each value an n-element array of pointers ... Each array
      entry has an associated tag, and the maximum of two entries is the
      one with the higher tag.  The join of two values is the element-wise
      maximum of the two arrays."

   Process P's [update] bumps P's private tag and contributes a vector
   that is bottom everywhere except position P; [snapshot] contributes
   bottom and reads back the join — an instantaneous picture of all
   slots.  Tags are sound because each slot has a single writer. *)

module Make
    (V : Slot_value.S)
    (M : Pram.Memory.VERSIONED) =
struct
  module Slot = Semilattice.Tagged (V)
  module Lat = Semilattice.Vector (Slot)
  module Scanner = Scan.Make (Lat) (M)

  type t = {
    procs : int;
    scanner : Scanner.t;
    seq : int array;  (* per-process private tag counters *)
  }

  let create ~variant ~procs =
    let scanner = Scanner.create ~variant ~procs in
    { procs; scanner; seq = Array.make procs 0 }

  type handle = {
    obj : t;
    pid : int;
    scanner : Scanner.handle;  (* the underlying scan session *)
  }

  let attach obj ctx =
    { obj; pid = Runtime.Ctx.pid ctx; scanner = Scanner.attach obj.scanner ctx }

  let update h v =
    let t = h.obj in
    t.seq.(h.pid) <- t.seq.(h.pid) + 1;
    let contribution =
      Lat.singleton ~width:t.procs h.pid (Slot.make ~tag:t.seq.(h.pid) v)
    in
    Scanner.write_l h.scanner contribution

  (* Raw (tag, value) view: tag 0 means "never updated". *)
  let snapshot_tagged h =
    let joined = Scanner.read_max h.scanner in
    if Array.length joined = 0 then Array.make h.obj.procs Slot.bottom
    else joined

  let snapshot h = Array.map Slot.value (snapshot_tagged h)
end
