(* Experiments E6 and E9: the universal construction's costs.

   E6 (Section 5.4): synchronization overhead per operation of the
   Figure 4 construction — one atomic snapshot plus one anchor update.
   The construction commits through the Adaptive scan, so a solo
   (uncontended) operation is the fast-path formula exactly: 4(n-1)
   validation reads for the snapshot plus the single publish write of
   the update — O(n), down from the 2(n^2-1) reads + 2(n+1) writes the
   double-collect path paid.  The measured numbers are exact counts
   from solo executions.

   E9 (Section 5.4 closing remark): generic construction vs the
   type-specific Direct counter: shared-memory steps per operation are
   comparable (both are dominated by the scan), but the generic
   construction also pays LOCAL graph work that grows with the object's
   history; we report the local time per operation as history grows, and
   the constant-time behaviour of the direct version. *)

module UC = Universal.Construction.Make (Spec.Counter_spec) (Pram.Memory.Sim_v)
module DirC = Universal.Direct.Counter (Pram.Memory.Sim_v)
module UC_direct_mem =
  Universal.Construction.Make (Spec.Counter_spec) (Pram.Memory.Direct_v)
module DirC_direct_mem = Universal.Direct.Counter (Pram.Memory.Direct_v)

let universal_op_steps ~procs =
  let program () =
    let t = UC.create ~procs () in
    fun pid ->
      let h = UC.attach t (Runtime.Ctx.make ~procs ~pid ()) in
      ignore (UC.execute h (Spec.Counter_spec.Inc (pid + 1)))
  in
  let d = Pram.Driver.create ~procs program in
  ignore (Pram.Driver.run_solo d 0);
  Pram.Driver.steps d 0

let e6 ?(ns = [ 2; 3; 4; 6; 8; 10 ]) () =
  let t =
    Table.create
      ~title:
        "E6 (Section 5.4): universal construction, shared-memory steps per \
         operation (= adaptive snapshot + publish) vs O(n)"
      ~header:[ "n"; "steps/op"; "4(n-1)+1"; "exact"; "steps/n" ]
  in
  List.iter
    (fun n ->
      let measured = universal_op_steps ~procs:n in
      let reads, writes =
        Snapshot.Scan.cost_formula ~procs:n Snapshot.Scan.Adaptive
      in
      let formula = reads + writes in
      Table.add_row t
        [
          string_of_int n;
          string_of_int measured;
          string_of_int formula;
          (if measured = formula then "yes" else "NO");
          Table.fmt_float2 (float_of_int measured /. float_of_int n);
        ])
    ns;
  t

(* Wall-clock per operation (including local computation), sequentially on
   the Direct memory backend, as the object's history grows.  This is
   where the generic construction's graph work shows up. *)
let time_per_op ~ops run_op =
  let t0 = Sys.time () in
  for i = 1 to ops do
    run_op i
  done;
  (Sys.time () -. t0) /. float_of_int ops *. 1e6 (* microseconds *)

let e9 ?(history_sizes = [ 25; 50; 100; 200 ]) () =
  let t =
    Table.create
      ~title:
        "E9 (ablation): generic Figure 4 counter vs type-optimized Direct \
         counter (n = 4, sequential)"
      ~header:
        [
          "ops in history";
          "generic us/op";
          "direct us/op";
          "generic steps/op";
          "direct steps/op";
        ]
  in
  let procs = 4 in
  (* shared-memory step counts from the simulator (independent of history
     size for direct; the universal pays the same sync steps too) *)
  let generic_steps = universal_op_steps ~procs in
  let direct_steps =
    let program () =
      let c = DirC.create ~procs in
      fun pid ->
        let h = DirC.attach c (Runtime.Ctx.make ~procs ~pid ()) in
        DirC.inc h (pid + 1)
    in
    let d = Pram.Driver.create ~procs program in
    ignore (Pram.Driver.run_solo d 0);
    Pram.Driver.steps d 0
  in
  List.iter
    (fun ops ->
      let u = UC_direct_mem.create ~procs () in
      let uhs =
        Array.init procs (fun pid ->
            UC_direct_mem.attach u (Runtime.Ctx.make ~procs ~pid ()))
      in
      let generic_us =
        time_per_op ~ops (fun i ->
            ignore
              (UC_direct_mem.execute uhs.(i mod procs)
                 (Spec.Counter_spec.Inc 1)))
      in
      let c = DirC_direct_mem.create ~procs in
      let chs =
        Array.init procs (fun pid ->
            DirC_direct_mem.attach c (Runtime.Ctx.make ~procs ~pid ()))
      in
      let direct_us =
        time_per_op ~ops (fun i -> DirC_direct_mem.inc chs.(i mod procs) 1)
      in
      Table.add_row t
        [
          string_of_int ops;
          Table.fmt_float2 generic_us;
          Table.fmt_float2 direct_us;
          string_of_int generic_steps;
          string_of_int direct_steps;
        ])
    history_sizes;
  t
