(* Experiments E6 and E9: the universal construction's costs.

   E6 (Section 5.4): synchronization overhead per operation of the
   Figure 4 construction.  The construction commits through the Adaptive
   scan, so a solo (uncontended) operation costs exactly the fast-path
   formula: 4(n-1) reads and one write — O(n).  The gates pin the sim
   rows to Scan.cost_formula.

   E9 (Section 5.4 closing remark): the generic construction vs the
   type-specific Direct counter.  Sim rows give the Direct counter's
   solo cost (one Optimized scan, O(n^2)) next to E6's; direct rows give
   the wall-clock ns per increment of each on the sequential backend, as
   the object's history grows. *)

module UC = Bench_stages.UC_sim
module DirC = Universal.Direct.Counter (Pram.Memory.Sim_v)

let solo_procs = [ 2; 3; 4; 6; 8; 10 ]

let e6 ~quick:_ =
  List.concat_map
    (fun procs ->
      Bench_stages.solo_rows ~bench:"universal_counter_solo" ~procs (fun () ->
          let t = UC.create ~procs () in
          fun pid ->
            let h = UC.attach t (Runtime.Ctx.make ~procs ~pid ()) in
            ignore (UC.execute h (Spec.Counter_spec.Inc (pid + 1)))))
    solo_procs

let history_sizes ~quick = if quick then [ 25; 50 ] else [ 25; 50; 100; 200 ]
let generic_history_bench ops = Printf.sprintf "universal_counter_h%d" ops
let direct_history_bench ops = Printf.sprintf "direct_counter_h%d" ops

(* Mean ns per increment over [ops] increments of a fresh object at
   n = 4, round-robin over its handles, so the history grows to [ops]. *)
let history_rows ops =
  let procs = 4 in
  let handles attach =
    Array.init procs (fun pid -> attach (Runtime.Ctx.make ~procs ~pid ()))
  in
  let time hs inc =
    let i = ref 0 in
    Bench_stages.time_direct ~iters:ops (fun () ->
        incr i;
        inc hs.(!i mod procs))
  in
  let generic =
    let module U = Bench_stages.UC_direct in
    time
      (handles (U.attach (U.create ~procs ())))
      (fun h -> ignore (U.execute h (Spec.Counter_spec.Inc 1)))
  in
  let direct =
    let module C = Bench_stages.Counter_direct in
    time (handles (C.attach (C.create ~procs))) (fun h -> C.inc h 1)
  in
  List.map
    (fun (bench, value) ->
      Bench_json.row ~bench ~procs ~backend:"direct" ~metric:"ns_per_op" ~value
        ~unit_:"ns")
    [ (generic_history_bench ops, generic); (direct_history_bench ops, direct) ]

let e9 ~quick =
  List.concat_map
    (fun procs ->
      Bench_stages.solo_rows ~bench:"direct_counter_solo" ~procs (fun () ->
          let c = DirC.create ~procs in
          fun pid ->
            DirC.inc (DirC.attach c (Runtime.Ctx.make ~procs ~pid ())) (pid + 1)))
    solo_procs
  @ List.concat_map history_rows (history_sizes ~quick)
