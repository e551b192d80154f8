(* Tests for the extended object zoo: the sticky register (negative
   example #2 — consensus-strength, fails Property 1), the histogram
   (Property-1, constructible both generically and directly), and vector
   clocks. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ctx ~procs pid = Runtime.Ctx.make ~procs ~pid ()

(* --- sticky register: the algebra decides constructibility ---------------- *)

let sticky_negative_tests =
  let module S = Spec.Sticky_spec in
  [
    Alcotest.test_case "sticky fails Property 1" `Quick (fun () ->
        check_bool "stick(1)/stick(2) unconstructible pair" false
          (Spec.Object_spec.property1_pair (module S) (S.Stick 1) (S.Stick 2)));
    Alcotest.test_case "property1 gate rejects sticky" `Quick (fun () ->
        check_bool "rejected" true
          (match
             Universal.Construction.check_property1
               (module S)
               [ S.Stick 1; S.Stick 2; S.Read_sticky ]
           with
          | Error _ -> true
          | Ok () -> false));
    Alcotest.test_case "first write wins sequentially" `Quick (fun () ->
        let s1, _ = S.apply S.initial (S.Stick 7) in
        let s2, _ = S.apply s1 (S.Stick 9) in
        let _, r = S.apply s2 S.Read_sticky in
        check_bool "kept 7" true (r = S.Value (Some 7)));
    Alcotest.test_case "contrast: plain register passes the gate" `Quick
      (fun () ->
        let module R = Spec.Rw_register_spec in
        check_bool "rw register accepted" true
          (Universal.Construction.check_property1
             (module R)
             [ R.Write 1; R.Write 2; R.Read ]
          = Ok ()));
  ]

(* sticky declared relations sound *)
let sticky_declarations =
  let module S = Spec.Sticky_spec in
  let module A = Spec.Object_spec.Algebra (S) in
  let op_gen =
    QCheck.oneof
      [
        QCheck.map (fun v -> S.Stick v) (QCheck.int_bound 5);
        QCheck.always S.Read_sticky;
      ]
  in
  QCheck.Test.make ~name:"sticky: declared relations sound" ~count:300
    QCheck.(triple (small_list op_gen) op_gen op_gen)
    (fun (prefix, p, q) ->
      let s = A.reach prefix in
      match A.check_declarations_at s p q with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)

(* --- histogram spec: declarations, Property 1, universal construction ---- *)

module H = Spec.Histogram_spec

let histogram_op_gen =
  QCheck.oneof
    [
      QCheck.map (fun (b, w) -> H.Observe (b, w)) QCheck.(pair (int_bound 3) (int_bound 5));
      QCheck.map (fun b -> H.Count b) (QCheck.int_bound 3);
      QCheck.always H.Total;
      QCheck.always H.Reset_all;
    ]

let histogram_declarations =
  let module A = Spec.Object_spec.Algebra (H) in
  QCheck.Test.make ~name:"histogram: declared relations sound" ~count:500
    QCheck.(triple (small_list histogram_op_gen) histogram_op_gen histogram_op_gen)
    (fun (prefix, p, q) ->
      let s = A.reach prefix in
      match A.check_declarations_at s p q with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)

let histogram_property1 =
  QCheck.Test.make ~name:"histogram: Property 1" ~count:500
    QCheck.(pair histogram_op_gen histogram_op_gen)
    (fun (p, q) -> Spec.Object_spec.property1_pair (module H) p q)

module UH = Universal.Construction.Make (H) (Pram.Memory.Sim_v)
module Check_h = Lincheck.Make (H)

let qcheck_universal_histogram_linearizable =
  QCheck.Test.make ~name:"universal histogram linearizable" ~count:150
    QCheck.(pair (int_bound 1_000_000) bool)
    (fun (seed, crash) ->
      let recorder = Spec.History.Recorder.create () in
      let script pid =
        match pid with
        | 0 -> [ H.Observe (1, 2); H.Count 1 ]
        | 1 -> [ H.Observe (1, 3); H.Total ]
        | _ -> [ H.Reset_all; H.Total ]
      in
      let program () =
        let t = UH.create ~procs:3 () in
        fun pid ->
          let h = UH.attach t (ctx ~procs:3 pid) in
          List.iter
            (fun op ->
              ignore
                (Spec.History.Recorder.record recorder ~pid op (fun () ->
                     UH.execute h op)))
            (script pid)
      in
      let d = Pram.Driver.create ~procs:3 program in
      Pram.Scheduler.run ~max_steps:5_000_000
        (Pram.Scheduler.random
           ~crash_prob:(if crash then 0.03 else 0.0)
           ~min_alive:1 ~seed ())
        d;
      for p = 0 to 2 do
        if Pram.Driver.runnable d p then ignore (Pram.Driver.run_solo d p)
      done;
      Check_h.is_linearizable (Spec.History.Recorder.events recorder))

(* --- direct histogram ------------------------------------------------------ *)

module DH = Universal.Direct.Histogram (Pram.Memory.Direct_v)
module DH_s = Universal.Direct.Histogram (Pram.Memory.Sim_v)

let test_direct_histogram_sequential () =
  let t = DH.create ~procs:2 in
  let h0 = DH.attach t (ctx ~procs:2 0) in
  let h1 = DH.attach t (ctx ~procs:2 1) in
  DH.observe h0 ~bucket:1 5;
  DH.observe h1 ~bucket:1 3;
  DH.observe h1 ~bucket:2 7;
  check_int "bucket 1" 8 (DH.count h0 ~bucket:1);
  check_int "bucket 2" 7 (DH.count h0 ~bucket:2);
  check_int "empty bucket" 0 (DH.count h0 ~bucket:9);
  check_int "total" 15 (DH.total h1);
  check_bool "bindings" true (DH.bindings h0 = [ (1, 8); (2, 7) ])

let test_direct_histogram_rejects_negative () =
  let t = DH.create ~procs:1 in
  let h0 = DH.attach t (ctx ~procs:1 0) in
  check_bool "negative weight rejected" true
    (try DH.observe h0 ~bucket:0 (-1); false
     with Invalid_argument _ -> true)

let qcheck_direct_histogram_concurrent_total =
  (* once quiescent, the total equals the sum of all observations *)
  QCheck.Test.make ~name:"direct histogram total converges" ~count:200
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let procs = 3 in
      let program () =
        let t = DH_s.create ~procs in
        fun pid ->
          let h = DH_s.attach t (ctx ~procs pid) in
          DH_s.observe h ~bucket:(pid mod 2) (pid + 1);
          DH_s.observe h ~bucket:2 1;
          DH_s.total h
      in
      let d = Pram.Driver.create ~procs program in
      Pram.Scheduler.run (Pram.Scheduler.random ~seed ()) d;
      let expected = (1 + 2 + 3) + 3 in
      (* after quiescence, the largest observed total must be the full sum
         and every result must be at least the caller's own contribution *)
      let results =
        List.filter_map (Pram.Driver.result d) (List.init procs Fun.id)
      in
      List.length results = procs
      && List.exists (fun t -> t = expected) results
      && List.for_all (fun t -> t <= expected) results)

(* --- vector clocks ---------------------------------------------------------- *)

module VC = Universal.Direct.Vector_clock (Pram.Memory.Direct_v)
module VC_s = Universal.Direct.Vector_clock (Pram.Memory.Sim_v)

let test_vector_clock_sequential () =
  let t = VC.create ~procs:3 in
  let v1 = VC.tick (VC.attach t (ctx ~procs:3 0)) in
  check_bool "first tick" true (v1 = [| 1; 0; 0 |]);
  let v2 = VC.tick (VC.attach t (ctx ~procs:3 1)) in
  check_bool "second tick merges" true (v2 = [| 1; 1; 0 |]);
  check_bool "v1 happened before v2" true (VC.leq v1 v2);
  check_bool "v2 not before v1" false (VC.leq v2 v1)

let test_vector_clock_observe () =
  let t = VC.create ~procs:2 in
  let h0 = VC.attach t (ctx ~procs:2 0) in
  VC.observe h0 [| 0; 41 |];
  let v = VC.tick h0 in
  check_bool "tick after observe dominates it" true (VC.leq [| 0; 41 |] v);
  check_bool "own component advanced" true (v.(0) = 1 && v.(1) = 41)

let qcheck_vector_clock_causality =
  (* a tick's result strictly dominates every vector the process
     previously obtained — causal monotonicity under any schedule *)
  QCheck.Test.make ~name:"vector clock causal monotonicity" ~count:200
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let procs = 3 in
      let program () =
        let t = VC_s.create ~procs in
        fun pid ->
          let h = VC_s.attach t (ctx ~procs pid) in
          let a = VC_s.tick h in
          let b = VC_s.tick h in
          (a, b)
      in
      let d = Pram.Driver.create ~procs program in
      Pram.Scheduler.run (Pram.Scheduler.random ~seed ()) d;
      List.for_all
        (fun p ->
          match Pram.Driver.result d p with
          | Some (a, b) -> VC.leq a b && not (VC.leq b a)
          | None -> false)
        (List.init procs Fun.id))

let qcheck_vector_clock_ticks_comparable =
  (* Unlike message-passing vector clocks, shared-memory joined clocks
     make concurrent ticks COMPARABLE (they are scan outputs — Lemma 32
     again), and two concurrent ticks may even return the same vector,
     each having absorbed the other's contribution.  What always holds:
     tick results are pairwise comparable, and each contains the
     caller's own new count. *)
  QCheck.Test.make ~name:"vector clock ticks pairwise comparable" ~count:200
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let procs = 3 in
      let program () =
        let t = VC_s.create ~procs in
        fun pid -> VC_s.tick (VC_s.attach t (ctx ~procs pid))
      in
      let d = Pram.Driver.create ~procs program in
      Pram.Scheduler.run (Pram.Scheduler.random ~seed ()) d;
      let vs =
        List.filter_map
          (fun p -> Option.map (fun v -> (p, v)) (Pram.Driver.result d p))
          (List.init procs Fun.id)
      in
      List.for_all
        (fun (p, a) ->
          a.(p) = 1
          && List.for_all (fun (_, b) -> VC.leq a b || VC.leq b a) vs)
        vs)

let () =
  Alcotest.run "objects"
    [
      ( "sticky register",
        sticky_negative_tests @ [ QCheck_alcotest.to_alcotest sticky_declarations ] );
      ( "histogram",
        [
          QCheck_alcotest.to_alcotest histogram_declarations;
          QCheck_alcotest.to_alcotest histogram_property1;
          QCheck_alcotest.to_alcotest qcheck_universal_histogram_linearizable;
          Alcotest.test_case "direct sequential" `Quick
            test_direct_histogram_sequential;
          Alcotest.test_case "direct rejects negative" `Quick
            test_direct_histogram_rejects_negative;
          QCheck_alcotest.to_alcotest qcheck_direct_histogram_concurrent_total;
        ] );
      ( "vector clock",
        [
          Alcotest.test_case "sequential" `Quick test_vector_clock_sequential;
          Alcotest.test_case "observe" `Quick test_vector_clock_observe;
          QCheck_alcotest.to_alcotest qcheck_vector_clock_causality;
          QCheck_alcotest.to_alcotest qcheck_vector_clock_ticks_comparable;
        ] );
    ]
