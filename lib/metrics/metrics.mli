(** The shared-memory observability layer.

    The paper's whole evaluation is counts of atomic-register accesses:
    Theorem 5's [(2n+1)·log2(delta/epsilon) + O(n)] step bound, the
    universal construction's [O(n^2)] per-operation overhead, the
    Section 6.2 scan costs.  This module makes those counts first-class
    for {e both} backends, with one schema:

    - per-process read/write counters,
    - per-register read/write counters (plus allocation counts — the
      memory-footprint axis of the space–time trade-off),
    - per-operation step histograms (min/max/mean/p99 accesses per
      [Scan], [Apply], agreement round, ...) via a lightweight span API.

    Everything is {e off by default}: the unwrapped backends and an
    observer-less {!Pram.Driver} pay nothing, so timing runs are never
    perturbed.  A recorder is attached explicitly —

    - simulator: pass [Recorder.observer r] as [Driver.create]'s
      [?observer]; accesses are attributed by the driver, exactly one
      count per fired step;
    - native domains: instantiate [Runtime.Instrument] over
      {!Pram.Native.Mem} with a sink carrying this recorder, and have
      each domain call [Runtime.set_pid] once at the top of its body.

    Both feeds populate the same {!Recorder.t} and render to the same
    {!Snapshot.t}. *)

(** Summary statistics of an integer sample.

    Percentile convention: {b nearest-rank}.  For a sample of [count]
    observations sorted ascending, the p99 is the value at 1-based rank
    [max 1 (ceil (0.99 * count))] — no interpolation.  Consequences
    worth knowing when reading reports: stats are only defined on
    non-empty samples ({!Histogram.stats} returns [None] when empty); on
    a singleton the p99, min, max and mean all equal the one
    observation; and for any [count < 100] the rank rounds up to
    [count], so the p99 equals the max. *)
module Stats : sig
  type t = {
    count : int;
    min : int;
    max : int;
    mean : float;
    p50 : int;  (** value at rank [max 1 (ceil 0.50*count)] (nearest-rank) *)
    p99 : int;  (** value at rank [max 1 (ceil 0.99*count)] (nearest-rank) *)
  }

  val pp : Format.formatter -> t -> unit
end

(** A growable sample of non-negative integer observations (operation
    step counts).  Not thread-safe on its own; {!Recorder} serializes
    access to its histograms. *)
module Histogram : sig
  type t

  val create : unit -> t
  val add : t -> int -> unit
  val count : t -> int

  (** [None] when empty. *)
  val stats : t -> Stats.t option
end

(** Per-register totals, keyed by the feeding layer's register identity
    (driver trace ids for the simulator, wrapper ids for
    [Runtime.Instrument]). *)
type reg_stat = {
  rs_id : int;
  rs_name : string;
  rs_reads : int;
  rs_writes : int;
}

(** An immutable rendering of a recorder — the cross-backend schema the
    bench pipeline serializes. *)
module Snapshot : sig
  type t = {
    procs : int;
    reads_per_pid : int array;
    writes_per_pid : int array;
    registers_created : int;
    per_register : reg_stat list;  (** sorted by register id *)
    spans : (string * Stats.t) list;  (** sorted by operation label *)
  }
end

module Recorder : sig
  type t

  (** [create ~procs] allocates a recorder for pids [0..procs-1].
      Per-pid counters are atomic; per-register and span tables are
      mutex-protected — safe under domains, with contention cost, so
      keep recorders out of timing measurements.
      @raise Invalid_argument if [procs <= 0]. *)
  val create : procs:int -> t

  val procs : t -> int

  (** Raw feeds.  [pid] out of range raises [Invalid_argument]; register
      identity is optional (accesses fed without it still count toward
      pid totals). *)
  val record_read : ?reg_id:int -> ?reg_name:string -> t -> pid:int -> unit

  val record_write : ?reg_id:int -> ?reg_name:string -> t -> pid:int -> unit
  val record_create : t -> reg_id:int -> reg_name:string -> unit

  (** Totals so far. *)
  val reads : t -> pid:int -> int

  val writes : t -> pid:int -> int
  val total_reads : t -> int
  val total_writes : t -> int
  val registers_created : t -> int

  (** [with_span t ~pid ~op f] runs [f ()] and files the number of
      accesses pid [pid] performed during it under the histogram for
      [op].  Sound under concurrency because counters are per-pid (a
      process runs one operation at a time); call it from inside the
      process body, around one operation. *)
  val with_span : t -> pid:int -> op:string -> (unit -> 'a) -> 'a

  (** The histogram accumulated for one operation label, if any. *)
  val span_stats : t -> op:string -> Stats.t option

  val snapshot : t -> Snapshot.t

  (** The streaming hook for [Pram.Driver.create ?observer]: one count
      per fired access, attributed to the stepping pid. *)
  val observer : t -> Pram.Trace.access -> unit
end
