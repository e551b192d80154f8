(* Tests for one-shot lattice agreement (Section 2's "closely related"
   technique): validity, comparability, wait-freedom and cost for both
   the scan-based and the classifier-tree implementations. *)

module LA_scan = Snapshot.Lattice_agreement.Via_scan (Pram.Memory.Sim_v)
module LA_cls = Snapshot.Lattice_agreement.Classifier (Pram.Memory.Sim)
module LA_cls_d = Snapshot.Lattice_agreement.Classifier (Pram.Memory.Direct)
module PS = Snapshot.Lattice_agreement.Pid_set

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ctx ~procs pid = Runtime.Ctx.make ~procs ~pid ()

let run_random (module L : Snapshot.Lattice_agreement.S) ~procs ~seed
    ~crash_prob =
  let program () =
    let t = L.create ~procs in
    fun pid -> L.propose (L.attach t (ctx ~procs pid)) (PS.singleton pid)
  in
  let d = Pram.Driver.create ~procs program in
  Pram.Scheduler.run
    (Pram.Scheduler.random ~crash_prob ~min_alive:1 ~seed ())
    d;
  for p = 0 to procs - 1 do
    if Pram.Driver.runnable d p then ignore (Pram.Driver.run_solo d p)
  done;
  d

let la_properties (module L : Snapshot.Lattice_agreement.S) ~procs d =
  let all = PS.of_list (List.init procs Fun.id) in
  let outputs =
    List.filter_map
      (fun p ->
        Option.map (fun o -> (p, o)) (Pram.Driver.result d p))
      (List.init procs Fun.id)
  in
  List.for_all
    (fun (p, o) ->
      Snapshot.Lattice_agreement.valid ~own:(PS.singleton p) ~all o)
    outputs
  && List.for_all
       (fun (_, a) ->
         List.for_all
           (fun (_, b) -> Snapshot.Lattice_agreement.comparable a b)
           outputs)
       outputs

let qcheck_properties name (module L : Snapshot.Lattice_agreement.S) =
  QCheck.Test.make ~name:(name ^ ": validity + comparability") ~count:400
    QCheck.(triple (int_bound 1_000_000) (int_range 2 6) bool)
    (fun (seed, procs, crash) ->
      let d =
        run_random (module L) ~procs ~seed
          ~crash_prob:(if crash then 0.05 else 0.0)
      in
      la_properties (module L) ~procs d)

let test_sequential () =
  let t = LA_cls_d.create ~procs:4 in
  let o0 = LA_cls_d.propose (LA_cls_d.attach t (ctx ~procs:4 0)) (PS.singleton 0) in
  check_bool "first proposer outputs at least itself" true (PS.mem 0 o0);
  let o1 = LA_cls_d.propose (LA_cls_d.attach t (ctx ~procs:4 1)) (PS.singleton 1) in
  check_bool "comparable" true (Snapshot.Lattice_agreement.comparable o0 o1);
  check_bool "later output contains earlier" true (PS.subset o0 o1)

let test_propose_requires_own_pid () =
  let t = LA_cls_d.create ~procs:2 in
  let h0 = LA_cls_d.attach t (ctx ~procs:2 0) in
  check_bool "rejected" true
    (try ignore (LA_cls_d.propose h0 (PS.singleton 1)); false
     with Invalid_argument _ -> true);
  check_bool "out-of-range pid rejected" true
    (try ignore (LA_cls_d.propose h0 (PS.of_list [ 0; 2 ])); false
     with Invalid_argument _ -> true)

let test_costs () =
  (* classifier: ceil(log2 n) levels of n reads; scan: n^2 - 1 *)
  check_int "classifier n=8" 24 (LA_cls.reads_per_propose ~procs:8);
  check_int "scan n=8" 63 (LA_scan.reads_per_propose ~procs:8);
  (* the crossover the Section 2 remark is about: classifier wins as n
     grows *)
  check_bool "classifier asymptotically cheaper" true
    (LA_cls.reads_per_propose ~procs:32 < LA_scan.reads_per_propose ~procs:32)

let test_measured_cost_matches () =
  (* measured solo steps = reads + writes per propose *)
  List.iter
    (fun procs ->
      let program () =
        let t = LA_cls.create ~procs in
        fun pid ->
          LA_cls.propose (LA_cls.attach t (ctx ~procs pid)) (PS.singleton pid)
      in
      let d = Pram.Driver.create ~procs program in
      ignore (Pram.Driver.run_solo d 0);
      let levels =
        let rec go l = if 1 lsl l >= procs then l else go (l + 1) in
        go 0
      in
      check_int
        (Printf.sprintf "classifier steps at n=%d" procs)
        (levels * (procs + 1))
        (Pram.Driver.steps d 0))
    [ 2; 4; 8 ]

let test_reads_per_propose_counted () =
  (* [reads_per_propose] pinned as an equality against the counting
     backend at procs 1..8: a solo propose performs exactly
     ceil(log2 n) levels of n slot reads (plus one write per level,
     not part of the read formula). *)
  for procs = 1 to 8 do
    let journal = Tracing.Journal.create ~procs () in
    let module M =
      Runtime.Instrument
        (Pram.Memory.Direct_v)
        (struct
          let sink = Runtime.Sink.make ~journal ()
        end)
    in
    let module C = Snapshot.Lattice_agreement.Classifier (M) in
    let t = C.create ~procs in
    Runtime.set_pid 0;
    ignore (C.propose (C.attach t (ctx ~procs 0)) (PS.singleton 0));
    let reads =
      List.length
        (List.filter
           (fun e ->
             e.Tracing.pid = 0
             &&
             match e.Tracing.ev with
             | Tracing.Access { kind = Pram.Trace.Read; _ } -> true
             | _ -> false)
           (Tracing.Journal.events journal))
    in
    check_int
      (Printf.sprintf "classifier reads at n=%d" procs)
      (C.reads_per_propose ~procs) reads
  done

let test_exhaustive_two_procs () =
  let program () =
    let t = LA_cls.create ~procs:2 in
    fun pid ->
      LA_cls.propose (LA_cls.attach t (ctx ~procs:2 pid)) (PS.singleton pid)
  in
  let outcome =
    Pram.Explore.search ~way:Pram.Explore.Way.Naive ~max_crashes:1 ~procs:2
      (Pram.Explore.instance program ~check:(fun d _ ->
           la_properties (module LA_cls) ~procs:2 d))
  in
  check_bool "classifier exhaustively correct (with crashes)" true
    (Pram.Explore.ok outcome)

(* One tree, one descent per process under [stamps.(pid)] from the
   singleton map: each result holds its own pid and only pids of its own
   stamp (other stamps' posts are invisible), and same-stamp results are
   ordered by inclusion — the classifier property, per stamp. *)
module Tree = Snapshot.Classifier_tree.Make (Pram.Memory.Sim)

let test_tree_stamps_isolated () =
  let run ~way ~stamps =
    let procs = Array.length stamps in
    let setup () =
      let t = Tree.create ~name:"t" ~procs in
      fun pid ->
        let own = Array.make procs None in
        own.(pid) <- Some ();
        Tree.descend t ~stamp:stamps.(pid) ~pid own
    in
    let check d _ =
      let domain m =
        PS.of_list
          (List.filter (fun q -> Option.is_some m.(q)) (List.init procs Fun.id))
      in
      let results =
        List.filter_map
          (fun p -> Option.map (fun m -> (p, domain m)) (Pram.Driver.result d p))
          (List.init procs Fun.id)
      in
      List.for_all
        (fun (p, a) ->
          PS.mem p a
          && PS.for_all (fun q -> stamps.(q) = stamps.(p)) a
          && List.for_all
               (fun (q, b) ->
                 stamps.(q) <> stamps.(p)
                 || Snapshot.Lattice_agreement.comparable a b)
               results)
        results
    in
    let o =
      Pram.Explore.search ~way ~procs (Pram.Explore.instance ~check setup)
    in
    let name =
      String.concat "," (Array.to_list (Array.map string_of_int stamps))
    in
    check_bool ("stamps " ^ name ^ " isolated and ordered") true
      (Pram.Explore.ok o);
    o.Pram.Explore.explored
  in
  let naive = Pram.Explore.Way.Naive and dpor = Pram.Explore.Way.systematic in
  check_int "naive [1;2]" 20 (run ~way:naive ~stamps:[| 1; 2 |]);
  check_int "naive [1;1]" 20 (run ~way:naive ~stamps:[| 1; 1 |]);
  check_int "systematic [1;1;2]" 66 (run ~way:dpor ~stamps:[| 1; 1; 2 |]);
  check_int "systematic [1;1;1]" 313 (run ~way:dpor ~stamps:[| 1; 1; 1 |])

let qcheck_wait_free =
  QCheck.Test.make ~name:"classifier propose completes solo" ~count:200
    QCheck.(pair (int_bound 1_000_000) (int_bound 60))
    (fun (seed, prefix_len) ->
      let procs = 4 in
      let program () =
        let t = LA_cls.create ~procs in
        fun pid ->
          LA_cls.propose (LA_cls.attach t (ctx ~procs pid)) (PS.singleton pid)
      in
      let d = Pram.Driver.create ~procs program in
      let sched = Pram.Scheduler.random ~seed () in
      for _ = 1 to prefix_len do
        match sched d with
        | Pram.Scheduler.Step p -> Pram.Driver.step d p
        | _ -> ()
      done;
      for p = 1 to procs - 1 do
        Pram.Driver.crash d p
      done;
      (not (Pram.Driver.runnable d 0))
      || Pram.Driver.run_solo ~max_steps:100 d 0)

let () =
  Alcotest.run "lattice_agreement"
    [
      ( "lattice agreement",
        [
          Alcotest.test_case "sequential containment" `Quick test_sequential;
          Alcotest.test_case "own pid required" `Quick test_propose_requires_own_pid;
          Alcotest.test_case "cost formulas" `Quick test_costs;
          Alcotest.test_case "measured cost matches" `Quick
            test_measured_cost_matches;
          Alcotest.test_case "reads_per_propose counted, procs 1..8" `Quick
            test_reads_per_propose_counted;
          Alcotest.test_case "exhaustive n=2 with crashes" `Quick
            test_exhaustive_two_procs;
          Alcotest.test_case "tree: stamps isolated, same-stamp ordered"
            `Quick test_tree_stamps_isolated;
          QCheck_alcotest.to_alcotest
            (qcheck_properties "scan LA" (module LA_scan));
          QCheck_alcotest.to_alcotest
            (qcheck_properties "classifier LA" (module LA_cls));
          QCheck_alcotest.to_alcotest qcheck_wait_free;
        ] );
    ]
