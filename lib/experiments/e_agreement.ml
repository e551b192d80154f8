(* Experiments E1-E4 and E8: approximate agreement bounds and the
   wait-free hierarchy, as sim rows of step counts.

   E1 (Theorem 5): measured worst-case steps per process across a mix of
   schedules, swept over process count and delta/epsilon, next to the
   closed-form upper bound (2n+1) log2(delta/eps) + O(n).

   E2 and E3 share one sweep over eps = 3^-k with two processes: E2
   (Lemma 6) reads the steps the faithful replay adversary forces
   against the floor(log3(delta/eps)) lower bound, E3 (Theorem 7) reads
   the same forced steps against k and Theorem 5's K.

   E4 (Theorem 8): fixed eps, growing delta: forced steps grow without
   bound — wait-free but not bounded wait-free.

   E8 (Hoest-Shavit remark): greedy-adversary forced steps for n = 2 vs
   n = 3 (log3 vs log2 regimes).

   Bench names carry the sweep parameter; the gates in Bench_gates name
   the same benches. *)

module AA = Agreement.Approx_agreement.Make (Pram.Memory.Sim)
module H = Agreement.Hierarchy

let steps ~bench ~procs metric value =
  Bench_json.row ~bench ~procs ~backend:"sim" ~metric ~value ~unit_:"accesses"

(* Worst-case measured steps for one configuration across a schedule
   mix. *)
let measure_worst ~procs ~epsilon ~inputs ~seeds =
  let program () =
    let t = AA.create ~procs ~epsilon in
    fun pid ->
      let h = AA.attach t (Runtime.Ctx.make ~procs ~pid ()) in
      AA.input h inputs.(pid);
      AA.output h
  in
  let worst = ref 0 in
  List.iter
    (fun kind ->
      let d = Pram.Driver.create ~procs program in
      Pram.Scheduler.run ~max_steps:10_000_000 (Workload.scheduler_of kind) d;
      for p = 0 to procs - 1 do
        if Pram.Driver.runnable d p then ignore (Pram.Driver.run_solo d p)
      done;
      for p = 0 to procs - 1 do
        worst := max !worst (Pram.Driver.steps d p)
      done)
    (Workload.standard_schedules ~seeds);
  !worst

let e1_procs = [ 2; 3; 4; 6; 8 ]
let e1_ratios = [ 10.0; 100.0; 1000.0; 10000.0 ]
let e1_bench ratio = Printf.sprintf "agreement_r%.0f" ratio

let e1 ~quick =
  let seeds = if quick then 3 else 10 in
  List.concat_map
    (fun procs ->
      List.concat_map
        (fun ratio ->
          let inputs = Workload.agreement_inputs ~seed:7 ~procs ~delta:ratio in
          let mk = steps ~bench:(e1_bench ratio) ~procs in
          [
            mk "steps_max"
              (float_of_int (measure_worst ~procs ~epsilon:1.0 ~inputs ~seeds));
            mk "step_bound"
              (Agreement.Approx_agreement.step_bound ~procs ~delta:ratio
                 ~epsilon:1.0);
          ])
        e1_ratios)
    e1_procs

(* The floor, forced and bound rows of one hierarchy row, at procs 2. *)
let hierarchy_rows bench (r : H.row) =
  let mk = steps ~bench ~procs:2 in
  [
    mk "floor" (float_of_int r.H.lower_bound);
    mk "forced" (float_of_int r.H.forced);
    mk "step_bound" r.H.upper_bound;
  ]

let theorem7_levels ~quick = List.init (if quick then 5 else 8) succ
let theorem7_bench k = Printf.sprintf "theorem7_k%d" k

(* The stage of E2 and E3; [violations] is 1 when the attacked execution
   broke the Figure 1 specification. *)
let theorem7 ~quick =
  List.concat_map
    (fun k ->
      let r = H.theorem7_row k in
      let bench = theorem7_bench k in
      hierarchy_rows bench r
      @ [
          Bench_json.row ~bench ~procs:2 ~backend:"sim" ~metric:"violations"
            ~value:(if r.H.agreement_ok then 0.0 else 1.0)
            ~unit_:"executions";
        ])
    (theorem7_levels ~quick)

let theorem8_decades ~quick = List.init (if quick then 4 else 6) succ
let theorem8_bench e = Printf.sprintf "theorem8_d1e%d" e

let e4 ~quick =
  List.concat_map
    (fun e ->
      hierarchy_rows (theorem8_bench e)
        (H.theorem8_row ~delta:(Float.pow 10.0 (float_of_int e))))
    (theorem8_decades ~quick)

let greedy_levels ~quick = if quick then [ 2; 3 ] else [ 2; 3; 4; 5 ]
let greedy_bench k = Printf.sprintf "greedy_k%d" k

let e8 ~quick =
  List.concat_map
    (fun k ->
      let epsilon = 1.0 /. Float.pow 3.0 (float_of_int k) in
      List.map
        (fun procs ->
          steps ~bench:(greedy_bench k) ~procs "forced"
            (float_of_int (fst (H.greedy_forced ~procs ~epsilon))))
        [ 2; 3 ])
    (greedy_levels ~quick)
