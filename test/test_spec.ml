(* Tests for the sequential-specification framework: the declared
   commute/overwrite relations of every spec are checked against their
   pointwise meaning on random reachable states (discharging the proof
   obligations of Definitions 10-11), Property 1 is verified for the
   constructible objects and refuted for the queue, and the dominance
   relation is checked to be a strict partial order (Lemma 15). *)

(* Generators of operations and reachable states per object. *)
module Counter_gen = struct
  open QCheck

  let operation =
    oneof
      [
        map (fun n -> Spec.Counter_spec.Inc n) (int_bound 10);
        map (fun n -> Spec.Counter_spec.Dec n) (int_bound 10);
        map (fun n -> Spec.Counter_spec.Reset n) (int_bound 10);
        always Spec.Counter_spec.Read;
      ]

  let ops = list_of_size Gen.(int_bound 8) operation
end

module Gset_gen = struct
  open QCheck

  let operation =
    oneof
      [
        map (fun n -> Spec.Gset_spec.Add n) (int_bound 5);
        always Spec.Gset_spec.Clear;
        always Spec.Gset_spec.Members;
      ]

  let ops = list_of_size Gen.(int_bound 8) operation
end

module Maxreg_gen = struct
  open QCheck

  let operation =
    oneof
      [
        map (fun n -> Spec.Max_register_spec.Write_max n) (int_bound 20);
        always Spec.Max_register_spec.Read_max;
      ]

  let ops = list_of_size Gen.(int_bound 8) operation
end

module Queue_gen = struct
  open QCheck

  let operation =
    oneof
      [ map (fun n -> Spec.Queue_spec.Enq n) (int_bound 5); always Spec.Queue_spec.Deq ]

  let ops = list_of_size Gen.(int_bound 8) operation
end

module Rwreg_gen = struct
  open QCheck

  let operation =
    oneof
      [ map (fun n -> Spec.Rw_register_spec.Write n) (int_bound 10);
        always Spec.Rw_register_spec.Read ]

  let ops = list_of_size Gen.(int_bound 8) operation
end

(* Declared-relation soundness: at every reachable state, a declared
   commute really commutes and a declared overwrite really overwrites. *)
let declaration_tests (type st op r) ~name
    (module O : Spec.Object_spec.S
      with type state = st
       and type operation = op
       and type response = r) ops_gen op_gen =
  let module A = Spec.Object_spec.Algebra (O) in
  let open QCheck in
  [
    Test.make ~name:(name ^ ": declared relations sound") ~count:500
      (triple ops_gen op_gen op_gen)
      (fun (prefix, p, q) ->
        let s = A.reach prefix in
        match A.check_declarations_at s p q with
        | None -> true
        | Some msg -> Test.fail_report msg);
    Test.make ~name:(name ^ ": commutes symmetric") ~count:200 (pair op_gen op_gen)
      (fun (p, q) -> O.commutes p q = O.commutes q p);
  ]

(* Property 1 holds (via declared relations) for constructible objects. *)
let property1_test (type st op r) ~name
    (module O : Spec.Object_spec.S
      with type state = st
       and type operation = op
       and type response = r) op_gen =
  QCheck.Test.make ~name:(name ^ ": Property 1") ~count:500
    QCheck.(pair op_gen op_gen)
    (fun (p, q) -> Spec.Object_spec.property1_pair (module O) p q)

(* Dominance is a strict partial order (Lemma 15): irreflexive within a
   process (an op cannot dominate an op of the same process with the same
   pid... the definition compares distinct processes) — we check
   antisymmetry and transitivity over random labeled triples. *)
let dominance_tests (type st op r) ~name
    (module O : Spec.Object_spec.S
      with type state = st
       and type operation = op
       and type response = r) op_gen =
  let dom (p, pp) (q, qp) =
    Spec.Object_spec.dominates (module O) ~p ~p_pid:pp ~q ~q_pid:qp
  in
  let labeled = QCheck.(pair op_gen (int_bound 3)) in
  let open QCheck in
  [
    Test.make ~name:(name ^ ": dominance antisymmetric") ~count:500
      (pair labeled labeled)
      (fun (a, b) ->
        (* distinct processes, as in the paper's model of one op per process
           considered at a time *)
        QCheck.assume (snd a <> snd b);
        not (dom a b && dom b a));
    Test.make ~name:(name ^ ": dominance transitive") ~count:500
      (triple labeled labeled labeled)
      (fun (a, b, c) ->
        QCheck.assume (snd a <> snd b && snd b <> snd c && snd a <> snd c);
        if dom a b && dom b c then dom a c else true);
  ]

(* The queue must FAIL Property 1 — there is a concrete witness. *)
let queue_negative_tests =
  [
    Alcotest.test_case "queue violates Property 1" `Quick (fun () ->
        let p = Spec.Queue_spec.Enq 1 and q = Spec.Queue_spec.Deq in
        Alcotest.(check bool) "enq/deq unconstructible pair" false
          (Spec.Object_spec.property1_pair (module Spec.Queue_spec) p q));
    Alcotest.test_case "queue enq/deq do not commute at []" `Quick (fun () ->
        let module A = Spec.Object_spec.Algebra (Spec.Queue_spec) in
        Alcotest.(check bool) "pointwise" false
          (A.commutes_at [] (Spec.Queue_spec.Enq 1) Spec.Queue_spec.Deq));
    Alcotest.test_case "neither enq nor deq overwrites the other" `Quick
      (fun () ->
        let module A = Spec.Object_spec.Algebra (Spec.Queue_spec) in
        (* at state [2], enq-then-deq is not equivalent to deq alone *)
        Alcotest.(check bool) "deq ow enq" false
          (A.overwrites_at [ 2 ] ~q:Spec.Queue_spec.Deq ~p:(Spec.Queue_spec.Enq 1));
        Alcotest.(check bool) "enq ow deq" false
          (A.overwrites_at [ 2 ] ~q:(Spec.Queue_spec.Enq 1) ~p:Spec.Queue_spec.Deq))
  ]

(* Pointwise sanity of the paper's Section 5.1 claims for the counter. *)
let counter_algebra_tests =
  let module C = Spec.Counter_spec in
  let module A = Spec.Object_spec.Algebra (C) in
  [
    Alcotest.test_case "inc and dec commute" `Quick (fun () ->
        Alcotest.(check bool) "decl" true (C.commutes (C.Inc 2) (C.Dec 3));
        Alcotest.(check bool) "pointwise" true (A.commutes_at 5 (C.Inc 2) (C.Dec 3)));
    Alcotest.test_case "every operation overwrites read" `Quick (fun () ->
        List.iter
          (fun q ->
            Alcotest.(check bool) "decl" true (C.overwrites q C.Read);
            Alcotest.(check bool) "pointwise" true (A.overwrites_at 5 ~q ~p:C.Read))
          [ C.Inc 1; C.Dec 1; C.Reset 7; C.Read ]);
    Alcotest.test_case "reset overwrites every operation" `Quick (fun () ->
        List.iter
          (fun p ->
            Alcotest.(check bool) "decl" true (C.overwrites (C.Reset 9) p);
            Alcotest.(check bool) "pointwise" true
              (A.overwrites_at 5 ~q:(C.Reset 9) ~p))
          [ C.Inc 1; C.Dec 1; C.Reset 7; C.Read ]);
    Alcotest.test_case "inc does not overwrite inc" `Quick (fun () ->
        Alcotest.(check bool) "decl" false (C.overwrites (C.Inc 1) (C.Inc 1));
        Alcotest.(check bool) "pointwise" false
          (A.overwrites_at 0 ~q:(C.Inc 1) ~p:(C.Inc 1)));
    Alcotest.test_case "run collects responses" `Quick (fun () ->
        let _, resps = A.run 0 [ C.Inc 3; C.Read; C.Dec 1; C.Read ] in
        Alcotest.(check bool) "responses" true
          (resps = [ C.Unit; C.Value 3; C.Unit; C.Value 2 ]));
  ]

(* Well-formed history bookkeeping. *)
let history_tests =
  let open Spec.History in
  [
    Alcotest.test_case "calls pair up" `Quick (fun () ->
        let events =
          [
            Invoke { pid = 0; op = "a" };
            Invoke { pid = 1; op = "b" };
            Return { pid = 0; resp = 1 };
            Return { pid = 1; resp = 2 };
          ]
        in
        let calls = calls_of_events events in
        Alcotest.(check int) "two calls" 2 (List.length calls);
        List.iter
          (fun c -> Alcotest.(check bool) "complete" false (is_pending c))
          calls);
    Alcotest.test_case "pending call detected" `Quick (fun () ->
        let events =
          [ Invoke { pid = 0; op = "a" }; Invoke { pid = 1; op = "b" };
            Return { pid = 1; resp = 2 } ]
        in
        let calls = calls_of_events events in
        let pending = List.filter is_pending calls in
        Alcotest.(check int) "one pending" 1 (List.length pending));
    Alcotest.test_case "double invoke rejected" `Quick (fun () ->
        let events =
          [ Invoke { pid = 0; op = "a" }; Invoke { pid = 0; op = "b" } ]
        in
        Alcotest.(check bool) "raises" true
          (try ignore (calls_of_events events); false with Malformed _ -> true));
    Alcotest.test_case "return without invoke rejected" `Quick (fun () ->
        Alcotest.(check bool) "raises" true
          (try ignore (calls_of_events [ Return { pid = 0; resp = 1 } ]); false
           with Malformed _ -> true));
    Alcotest.test_case "real-time precedence" `Quick (fun () ->
        let events =
          [
            Invoke { pid = 0; op = "a" };
            Return { pid = 0; resp = 1 };
            Invoke { pid = 1; op = "b" };
            Return { pid = 1; resp = 2 };
          ]
        in
        match calls_of_events events with
        | [ a; b ] ->
            Alcotest.(check bool) "a before b" true (precedes a b);
            Alcotest.(check bool) "b not before a" false (precedes b a)
        | _ -> Alcotest.fail "expected two calls");
    Alcotest.test_case "recorder order" `Quick (fun () ->
        let r = Recorder.create () in
        let resp = Recorder.record r ~pid:0 "op" (fun () -> 42) in
        Alcotest.(check int) "passthrough" 42 resp;
        Alcotest.(check int) "two events" 2 (List.length (Recorder.events r)));
    Alcotest.test_case "concurrent recorder orders by ticket" `Quick (fun () ->
        let r = Recorder.create () in
        Recorder.invoke r ~pid:0 "a";
        Recorder.invoke r ~pid:1 "b";
        Recorder.return r ~pid:0 1;
        Recorder.return r ~pid:1 2;
        match Recorder.events r with
        | [ Invoke { pid = 0; _ }; Invoke { pid = 1; _ }; Return { pid = 0; _ };
            Return { pid = 1; _ } ] ->
            ()
        | _ -> Alcotest.fail "unexpected order");
  ]

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "spec"
    [
      ( "counter",
        List.map q
          (declaration_tests ~name:"counter"
             (module Spec.Counter_spec)
             Counter_gen.ops Counter_gen.operation
          @ [
              property1_test ~name:"counter"
                (module Spec.Counter_spec)
                Counter_gen.operation;
            ]
          @ dominance_tests ~name:"counter"
              (module Spec.Counter_spec)
              Counter_gen.operation)
        @ counter_algebra_tests );
      ( "gset",
        List.map q
          (declaration_tests ~name:"gset"
             (module Spec.Gset_spec)
             Gset_gen.ops Gset_gen.operation
          @ [ property1_test ~name:"gset" (module Spec.Gset_spec) Gset_gen.operation ]
          @ dominance_tests ~name:"gset" (module Spec.Gset_spec) Gset_gen.operation)
      );
      ( "max_register",
        List.map q
          (declaration_tests ~name:"maxreg"
             (module Spec.Max_register_spec)
             Maxreg_gen.ops Maxreg_gen.operation
          @ [
              property1_test ~name:"maxreg"
                (module Spec.Max_register_spec)
                Maxreg_gen.operation;
            ]
          @ dominance_tests ~name:"maxreg"
              (module Spec.Max_register_spec)
              Maxreg_gen.operation) );
      ( "rw_register",
        List.map q
          (declaration_tests ~name:"rwreg"
             (module Spec.Rw_register_spec)
             Rwreg_gen.ops Rwreg_gen.operation
          @ [
              property1_test ~name:"rwreg"
                (module Spec.Rw_register_spec)
                Rwreg_gen.operation;
            ]
          @ dominance_tests ~name:"rwreg"
              (module Spec.Rw_register_spec)
              Rwreg_gen.operation) );
      ( "queue",
        List.map q
          (declaration_tests ~name:"queue"
             (module Spec.Queue_spec)
             Queue_gen.ops Queue_gen.operation)
        @ queue_negative_tests );
      ("history", history_tests);
    ]
