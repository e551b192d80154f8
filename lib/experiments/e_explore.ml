(* Experiment E12: DPOR vs naive exhaustive exploration.

   Not a paper claim but a claim about the test harness: dynamic
   partial-order reduction ([Way.systematic]) explores one representative
   per Mazurkiewicz trace instead of every maximal schedule ([Way.Naive]),
   with the same verdict on every seed program.  One row per program: the
   schedules each way explores, the reduction, both search times, and
   both verdicts.  The reduction is what makes the 3-process
   configurations of the tier-1 suite checkable at all. *)

module Scan = Snapshot.Scan.Make (Semilattice.Nat_max) (Pram.Memory.Sim_v)
module Scan_check =
  Lincheck.Make (Snapshot.Scan_spec.Make (Semilattice.Nat_max))
module Counter = Universal.Direct.Counter (Pram.Memory.Sim_v)
module Counter_check = Lincheck.Make (Spec.Counter_spec)
module AA = Agreement.Approx_agreement.Make (Pram.Memory.Sim)

let verdict (o : Pram.Explore.outcome) =
  if o.Pram.Explore.truncated then "truncated"
  else if o.Pram.Explore.failures = [] then "ok"
  else "violation"

let add_row t name ~procs ?max_schedules program =
  let run way =
    let t0 = Monotonic_clock.now () in
    let outcome = Pram.Explore.search ~way ?max_schedules ~procs program in
    (outcome, Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e9)
  in
  let naive, t_naive = run Pram.Explore.Way.Naive in
  let dpor, t_dpor = run Pram.Explore.Way.systematic in
  let n = naive.Pram.Explore.explored and d = dpor.Pram.Explore.explored in
  (* a truncated naive search has no verdict to contradict DPOR's *)
  let holds =
    d <= n && (naive.Pram.Explore.truncated || verdict naive = verdict dpor)
  in
  Table.add_row t
    [
      name;
      string_of_int procs;
      string_of_int n;
      string_of_int d;
      Printf.sprintf "%.1fx" (float_of_int n /. float_of_int (max 1 d));
      Printf.sprintf "%.2fs" t_naive;
      Printf.sprintf "%.2fs" t_dpor;
      verdict naive ^ "/" ^ verdict dpor;
      (if holds then "yes" else "NO");
    ]

(* [agreement] adds the 3-process approximate-agreement row, whose naive
   search runs to its 20M-schedule cap (about a minute). *)
let e12 ?(agreement = true) () =
  let t =
    Table.create
      ~title:
        "E12 (tooling): DPOR vs naive exhaustive exploration, schedules \
         explored"
      ~header:
        [
          "program"; "procs"; "naive"; "dpor"; "reduction"; "t_naive"; "t_dpor";
          "verdicts"; "dpor <= naive, same verdict";
        ]
  in
  (* lost-update counter: the canonical race, found by both modes *)
  let lost_update () =
    let r = Pram.Memory.Sim.create 0 in
    fun _pid ->
      let v = Pram.Memory.Sim.read r in
      Pram.Memory.Sim.write r (v + 1);
      Pram.Register.get r
  in
  add_row t "lost-update counter" ~procs:2
    (Pram.Explore.instance lost_update ~check:(fun d _ ->
         match (Pram.Driver.result d 0, Pram.Driver.result d 1) with
         | Some a, Some b -> max a b = 2
         | _ -> true));
  (* 2-proc snapshot scan: write_l+read_max vs read_max *)
  let scan_program record =
    let s = Scan.create ~variant:Snapshot.Scan.Optimized ~procs:2 in
    fun pid ->
      let h = Scan.attach s (Runtime.Ctx.make ~procs:2 ~pid ()) in
      if pid = 0 then
        ignore
          (record ~pid (`Write_l 1) (fun () ->
               Scan.write_l h 1;
               `Unit));
      ignore (record ~pid `Read_max (fun () -> `Join (Scan.read_max h)))
  in
  add_row t "snapshot scan" ~procs:2 (Scan_check.instance scan_program);
  (* 2-proc universal (direct) counter: inc vs read *)
  let ctr_program record =
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
  in
  add_row t "universal counter" ~procs:2 (Counter_check.instance ctr_program);
  if agreement then begin
    (* 3-proc approximate agreement: inputs already within epsilon/2 *)
    let aa_program () =
      let a = AA.create ~procs:3 ~epsilon:8.0 in
      fun pid ->
        let h = AA.attach a (Runtime.Ctx.make ~procs:3 ~pid ()) in
        AA.input h [| 0.0; 1.0; 2.0 |].(pid);
        AA.output h
    in
    add_row t "approx agreement" ~procs:3 ~max_schedules:20_000_000
      (Pram.Explore.instance aa_program ~check:(fun d _ ->
           let out p = Pram.Driver.result d p in
           match (out 0, out 1, out 2) with
           | Some a, Some b, Some c ->
               let lo = Float.min a (Float.min b c)
               and hi = Float.max a (Float.max b c) in
               hi -. lo < 8.0 && lo >= 0.0 && hi <= 2.0
           | _ -> false))
  end;
  t
