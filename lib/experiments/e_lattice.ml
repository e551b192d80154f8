(* Experiment E10: the lattice-agreement path to cheaper snapshots.

   The paper's Section 2 (in the 2000 revision) notes that lattice
   agreement "allows for faster snapshot protocols such as the
   asymptotically optimal O(n log n) protocol of Attiya and Rachman",
   versus the O(n^2) of the Section 6 scan.  Sim rows count the shared
   reads and writes of one solo propose for both: the scan-based one
   (one Optimized scan, n^2 - 1 reads) and the classifier tree
   (n * ceil(log2 n) reads). *)

module LA_scan = Snapshot.Lattice_agreement.Via_scan (Pram.Memory.Sim_v)
module LA_cls = Snapshot.Lattice_agreement.Classifier (Pram.Memory.Sim)
module PS = Snapshot.Lattice_agreement.Pid_set

let lattice_procs ~quick = if quick then [ 2; 4; 8 ] else [ 2; 4; 8; 16; 32; 64 ]

let propose_rows ~bench (module L : Snapshot.Lattice_agreement.S) ~procs =
  Bench_stages.solo_rows ~bench ~procs (fun () ->
      let t = L.create ~procs in
      fun pid ->
        ignore
          (L.propose (L.attach t (Runtime.Ctx.make ~procs ~pid ()))
             (PS.singleton pid)))

let e10 ~quick =
  List.concat_map
    (fun procs ->
      propose_rows ~bench:"lattice_agreement_scan" (module LA_scan) ~procs
      @ propose_rows ~bench:"lattice_agreement_classifier" (module LA_cls) ~procs)
    (lattice_procs ~quick)
