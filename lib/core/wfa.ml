(* WFA — Wait-Free data structures in the Asynchronous PRAM model.

   The facade library: one flat namespace over the whole system, for
   users who want `(libraries wfa)` and a single [open].  See README.md
   for the map and DESIGN.md for the architecture.

   - {!Pram}: the asynchronous-PRAM substrate (simulator + native
     seqlock registers);
   - {!Semilattice}: join-semilattices for the Section 6 scan;
   - {!Spec}: sequential specifications, histories, and the
     commute/overwrite algebra of Section 5.1;
   - {!Lincheck}: the linearizability checker (test oracle);
   - {!Snapshot}: the Section 6 atomic scan and baselines;
   - {!Agreement}: Figure 2 approximate agreement, the Lemma 6 adversary,
     and the Theorem 7/8 hierarchy experiments;
   - {!Universal}: the Figure 4 universal construction, its graph
     machinery, the direct (type-optimized) objects and pseudo-RMW;
   - {!Metrics}: the observability layer — per-process/per-register
     access counters, span histograms, one schema over both backends;
   - {!Telemetry}: production-style contention counters, the windowed
     sampler, and the OpenMetrics/JSON exporters (DESIGN.md §13);
   - {!Tracing}: the structured event journal — per-execution causal
     traces with timeline, Chrome-trace and round-trippable text
     renderers;
   - {!Runtime}: the per-process execution context ({!Ctx}) bundling
     pid, observer sink and deterministic RNG — the seam every
     algorithm's [attach] consumes — and [Runtime.run_domains], the one
     way to put processes on domains. *)

module Pram = Pram
module Semilattice = Semilattice
module Spec = Spec
module Lincheck = Lincheck
module Snapshot = Snapshot
module Agreement = Agreement
module Universal = Universal
module Workload = Workload
module Consensus = Consensus
module Metrics = Metrics
module Telemetry = Telemetry
module Tracing = Tracing
module Runtime = Runtime

(* The context, re-exported unprefixed: [Wfa.Ctx] is the intended
   spelling — as is [Wfa.Store], the sharded keyed store of
   universal-construction instances. *)
module Ctx = Runtime.Ctx
module Store = Universal.Store

(* Convenience aliases for the most common instantiations: simulator and
   native variants of the flagship objects. *)
module Sim = struct
  module Counter = Universal.Direct.Counter (Pram.Memory.Sim_v)
  module Gset = Universal.Direct.Gset (Pram.Memory.Sim_v)
  module Max_register = Universal.Direct.Max_register (Pram.Memory.Sim_v)
  module Logical_clock = Universal.Direct.Logical_clock (Pram.Memory.Sim_v)
  module Approx_agreement = Agreement.Approx_agreement.Make (Pram.Memory.Sim)
  module Universal_counter =
    Universal.Construction.Make (Spec.Counter_spec) (Pram.Memory.Sim_v)
end

module Native = struct
  module Counter = Universal.Direct.Counter (Pram.Native.Versioned)
  module Gset = Universal.Direct.Gset (Pram.Native.Versioned)
  module Max_register = Universal.Direct.Max_register (Pram.Native.Versioned)
  module Logical_clock = Universal.Direct.Logical_clock (Pram.Native.Versioned)
  module Approx_agreement = Agreement.Approx_agreement.Make (Pram.Native.Versioned)
  module Universal_counter =
    Universal.Construction.Make (Spec.Counter_spec) (Pram.Native.Versioned)
end
