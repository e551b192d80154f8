(* Experiment E11: the Hoest-Shavit constants, realized in the iterated
   immediate snapshot model.

   The paper (after Lemma 6) quotes Hoest and Shavit: in the iterated
   snapshot model, log3(delta/eps) is TIGHT for two processes and
   log2(delta/eps) for three or more.  We run approximate agreement in
   IIS with exactly ceil(log_base(delta/eps)) layers — the optimal
   two-thirds rule for n = 2 (base 3) and the midpoint rule for n >= 2
   (base 2) — and measure the worst residual gap over a schedule mix.
   The gap must come in at or below epsilon with exactly that many
   layers: the upper-bound half of tightness, with the paper's exact
   constants.  Gaps are sim rows in units of delta. *)

module IIS = Snapshot.Iis.Make (Pram.Memory.Sim_v)

let worst_gap ~procs ~layers ~rule ~delta ~seeds =
  let inputs =
    Array.init procs (fun p ->
        if p = 0 then 0.0 else if p = 1 then delta else delta /. 2.0)
  in
  let program () =
    let t = IIS.create ~procs ~layers () in
    fun pid ->
      let h = IIS.attach t (Runtime.Ctx.make ~procs ~pid ()) in
      IIS.run h ~rule:(rule h) inputs.(pid)
  in
  let worst = ref 0.0 in
  List.iter
    (fun kind ->
      let d = Pram.Driver.create ~procs program in
      Pram.Scheduler.run ~max_steps:10_000_000 (Workload.scheduler_of kind) d;
      for p = 0 to procs - 1 do
        if Pram.Driver.runnable d p then ignore (Pram.Driver.run_solo d p)
      done;
      let outputs =
        List.filter_map (Pram.Driver.result d) (List.init procs Fun.id)
      in
      match outputs with
      | [] -> ()
      | x :: rest ->
          let hi = List.fold_left Float.max x rest in
          let lo = List.fold_left Float.min x rest in
          worst := Float.max !worst (hi -. lo))
    (Workload.standard_schedules ~seeds);
  !worst

let iis_levels ~quick = List.init (if quick then 3 else 6) succ
let iis_bench k = Printf.sprintf "iis_k%d" k

(* At eps = 3^-k: the layer count and worst gap of the two-thirds rule
   at n = 2 (log3 layers) and of the midpoint rule at n = 3 (log2). *)
let e11 ~quick =
  let seeds = if quick then 3 else 10 in
  List.concat_map
    (fun k ->
      let epsilon = 1.0 /. Float.pow 3.0 (float_of_int k) in
      List.concat_map
        (fun (procs, base, rule) ->
          let layers = IIS.layers_needed ~base ~delta:1.0 ~epsilon in
          let mk metric value unit_ =
            Bench_json.row ~bench:(iis_bench k) ~procs ~backend:"sim" ~metric
              ~value ~unit_
          in
          [
            mk "layers" (float_of_int layers) "layers";
            mk "worst_gap"
              (worst_gap ~procs ~layers ~rule ~delta:1.0 ~seeds)
              "delta";
          ])
        [
          (2, 3.0, fun h -> IIS.two_proc_optimal h);
          (3, 2.0, fun _ -> IIS.midpoint);
        ])
    (iis_levels ~quick)
