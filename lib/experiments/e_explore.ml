(* Experiment E12: DPOR vs naive exhaustive exploration.

   Not a paper claim but a claim about the test harness: dynamic
   partial-order reduction ([Way.systematic]) explores one representative
   per Mazurkiewicz trace instead of every maximal schedule ([Way.Naive]),
   with the same verdict on every seed program.  Per program, sim rows
   give the schedules each way explores and the failing ones among them;
   direct rows give each search's wall clock.  The reduction is what
   makes the 3-process configurations of the tier-1 suite checkable at
   all.  The lost-update counter and the snapshot scan are the bench's
   own fixtures. *)

module Counter = Universal.Direct.Counter (Pram.Memory.Sim_v)
module Counter_check = Lincheck.Make (Spec.Counter_spec)
module AA = Agreement.Approx_agreement.Make (Pram.Memory.Sim)

let e12_bench program = "dpor_vs_naive_" ^ program

let compare_ways program ~procs ?max_schedules run =
  let bench = e12_bench program in
  List.concat_map
    (fun (name, way) ->
      let o, seconds =
        Bench_stages.timed (fun () ->
            Pram.Explore.search ~way ?max_schedules ~procs run)
      in
      let mk backend metric value unit_ =
        Bench_json.row ~bench ~procs ~backend ~metric:(name ^ metric) ~value
          ~unit_
      in
      [
        mk "sim" "_explored" (float_of_int o.Pram.Explore.explored) "schedules";
        mk "sim" "_violations"
          (float_of_int (List.length o.Pram.Explore.failures))
          "schedules";
        mk "direct" "_wall_ns" (Float.round (seconds *. 1e9)) "ns";
      ])
    [ ("naive", Pram.Explore.Way.Naive); ("dpor", Pram.Explore.Way.systematic) ]

(* 2-proc universal (direct) counter: inc vs read *)
let counter_program record =
  let c = Counter.create ~procs:2 in
  fun pid ->
    let h = Counter.attach c (Runtime.Ctx.make ~procs:2 ~pid ()) in
    if pid = 0 then
      ignore
        (record ~pid (Spec.Counter_spec.Inc 1) (fun () ->
             Counter.inc h 1;
             Spec.Counter_spec.Unit))
    else
      ignore
        (record ~pid Spec.Counter_spec.Read (fun () ->
             Spec.Counter_spec.Value (Counter.read h)))

(* 3-proc approximate agreement, inputs already within epsilon/2: the
   outputs must agree and stay inside the inputs' range *)
let agreement_program () =
  let a = AA.create ~procs:3 ~epsilon:8.0 in
  fun pid ->
    let h = AA.attach a (Runtime.Ctx.make ~procs:3 ~pid ()) in
    AA.input h [| 0.0; 1.0; 2.0 |].(pid);
    AA.output h

let agreement_check d _ =
  match List.map (Pram.Driver.result d) [ 0; 1; 2 ] with
  | [ Some a; Some b; Some c ] ->
      let lo = Float.min a (Float.min b c) and hi = Float.max a (Float.max b c) in
      hi -. lo < 8.0 && lo >= 0.0 && hi <= 2.0
  | _ -> false

(* The full sweep adds the 3-process agreement program, whose naive
   search runs to its 20M-schedule cap (about two minutes). *)
let e12 ~quick =
  List.concat
    [
      compare_ways "lost_update" ~procs:2 (Bench_stages.lost_update ~procs:2);
      compare_ways "scan" ~procs:2
        (Bench_stages.Scan_lin.instance Bench_stages.scan_program);
      compare_ways "counter" ~procs:2 (Counter_check.instance counter_program);
      (if quick then []
       else
         compare_ways "agreement" ~procs:3 ~max_schedules:20_000_000
           (Pram.Explore.instance agreement_program ~check:agreement_check));
    ]
