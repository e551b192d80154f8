(* Tests for the immediate snapshot (Borowsky-Gafni) and the iterated
   model (Hoest-Shavit's setting, cited after Lemma 6).

   The immediate snapshot's three properties — self-inclusion,
   containment, immediacy — are checked under random schedules (n up to
   5, with crashes) and EXHAUSTIVELY for n = 2.  The IIS agreement tests
   realize the tight constants: the 2-process optimal rule shrinks the
   gap by exactly 3 per layer under every schedule, so
   ceil(log3(delta/eps)) layers always suffice. *)

let check_bool = Alcotest.(check bool)

let ctx ~procs pid = Runtime.Ctx.make ~procs ~pid ()

module IS = Snapshot.Immediate_snapshot.Make (Snapshot.Slot_value.Int) (Pram.Memory.Sim)

(* the three IS properties over a set of (pid, view) results *)
let is_properties results =
  let module IM = Map.Make (Int) in
  let views = IM.of_seq (List.to_seq results) in
  let subset a b = List.for_all (fun x -> List.mem x b) a in
  IM.for_all
    (fun p view ->
      (* self-inclusion *)
      List.exists (fun (q, _) -> q = p) view
      && (* containment + immediacy against every other view *)
      IM.for_all
        (fun q view_q ->
          let containment = subset view view_q || subset view_q view in
          let immediacy =
            (not (List.exists (fun (r, _) -> r = q) view))
            || subset view_q view
          in
          containment && immediacy)
        views)
    views

let run_is ~procs ~seed ~crash_prob =
  let program () =
    let t = IS.create ~procs in
    fun pid -> IS.participate (IS.attach t (ctx ~procs pid)) (pid + 10)
  in
  let d = Pram.Driver.create ~procs program in
  Pram.Scheduler.run
    (Pram.Scheduler.random ~crash_prob ~min_alive:1 ~seed ())
    d;
  for p = 0 to procs - 1 do
    if Pram.Driver.runnable d p then ignore (Pram.Driver.run_solo d p)
  done;
  List.filter_map
    (fun p -> Option.map (fun v -> (p, v)) (Pram.Driver.result d p))
    (List.init procs Fun.id)

let qcheck_is_properties =
  QCheck.Test.make
    ~name:"immediate snapshot: self-inclusion, containment, immediacy"
    ~count:500
    QCheck.(triple (int_bound 1_000_000) (int_range 2 5) bool)
    (fun (seed, procs, crash) ->
      is_properties
        (run_is ~procs ~seed ~crash_prob:(if crash then 0.05 else 0.0)))

let test_is_exhaustive_two_procs () =
  let program () =
    let t = IS.create ~procs:2 in
    fun pid -> IS.participate (IS.attach t (ctx ~procs:2 pid)) (pid + 10)
  in
  let outcome =
    Pram.Explore.search ~way:Pram.Explore.Way.Naive ~max_crashes:1
      ~max_schedules:2_000_000 ~procs:2
      (Pram.Explore.instance program ~check:(fun d _ ->
           is_properties
             (List.filter_map
                (fun p ->
                  Option.map (fun v -> (p, v)) (Pram.Driver.result d p))
                [ 0; 1 ])))
  in
  check_bool "IS properties on every interleaving (with crashes)" true
    (Pram.Explore.ok outcome)

let test_is_sequential () =
  let module IS_d =
    Snapshot.Immediate_snapshot.Make (Snapshot.Slot_value.Int) (Pram.Memory.Direct)
  in
  let t = IS_d.create ~procs:3 in
  let v0 = IS_d.participate (IS_d.attach t (ctx ~procs:3 0)) 100 in
  check_bool "solo view is singleton" true (v0 = [ (0, 100) ]);
  let v1 = IS_d.participate (IS_d.attach t (ctx ~procs:3 1)) 200 in
  check_bool "second sees both" true (v1 = [ (0, 100); (1, 200) ])

(* --- IIS approximate agreement -------------------------------------------- *)

module IIS = Snapshot.Iis.Make (Pram.Memory.Sim_v)

let run_iis_agreement ~procs ~layers ~inputs ~seed ~rule () =
  let program () =
    let t = IIS.create ~procs ~layers () in
    fun pid ->
      let h = IIS.attach t (ctx ~procs pid) in
      IIS.run h ~rule:(rule h) inputs.(pid)
  in
  let d = Pram.Driver.create ~procs program in
  Pram.Scheduler.run (Pram.Scheduler.random ~seed ()) d;
  for p = 0 to procs - 1 do
    if Pram.Driver.runnable d p then ignore (Pram.Driver.run_solo d p)
  done;
  List.filter_map (Pram.Driver.result d) (List.init procs Fun.id)

let spread outputs =
  match outputs with
  | [] -> 0.0
  | x :: rest ->
      List.fold_left Float.max x rest -. List.fold_left Float.min x rest

let qcheck_two_proc_optimal_rate =
  (* exactly ceil(log3(delta/eps)) layers suffice for 2 processes, under
     any schedule: with L layers, the gap is at most delta / 3^L *)
  QCheck.Test.make ~name:"IIS 2-proc rule shrinks by 3 per layer" ~count:300
    QCheck.(pair (int_bound 1_000_000) (int_range 1 6))
    (fun (seed, layers) ->
      let delta = 1.0 in
      let inputs = [| 0.0; delta |] in
      let outputs =
        run_iis_agreement ~procs:2 ~layers ~inputs ~seed
          ~rule:(fun h -> IIS.two_proc_optimal h) ()
      in
      let bound = delta /. Float.pow 3.0 (float_of_int layers) in
      spread outputs <= bound +. 1e-12)

let qcheck_two_proc_validity =
  QCheck.Test.make ~name:"IIS agreement validity" ~count:300
    QCheck.(pair (int_bound 1_000_000) (int_range 1 5))
    (fun (seed, layers) ->
      let inputs = [| 2.0; 5.0 |] in
      let outputs =
        run_iis_agreement ~procs:2 ~layers ~inputs ~seed
          ~rule:(fun h -> IIS.two_proc_optimal h) ()
      in
      List.for_all (fun v -> v >= 2.0 && v <= 5.0) outputs)

let qcheck_midpoint_rate =
  (* the midpoint rule halves the range per layer for any n *)
  QCheck.Test.make ~name:"IIS midpoint rule shrinks by 2 per layer"
    ~count:300
    QCheck.(triple (int_bound 1_000_000) (int_range 2 4) (int_range 1 6))
    (fun (seed, procs, layers) ->
      let delta = 1.0 in
      let inputs =
        Array.init procs (fun p ->
            if p = 0 then 0.0
            else if p = 1 then delta
            else delta /. 2.0)
      in
      let outputs =
        run_iis_agreement ~procs ~layers ~inputs ~seed
          ~rule:(fun _h -> IIS.midpoint) ()
      in
      let bound = delta /. Float.pow 2.0 (float_of_int layers) in
      spread outputs <= bound +. 1e-12)

let test_layers_needed () =
  check_bool "log3" true
    (IIS.layers_needed ~base:3.0 ~delta:1.0 ~epsilon:(1.0 /. 27.0) = 3);
  check_bool "log2" true
    (IIS.layers_needed ~base:2.0 ~delta:8.0 ~epsilon:1.0 = 3);
  check_bool "already close" true
    (IIS.layers_needed ~base:3.0 ~delta:0.5 ~epsilon:1.0 = 0)

let test_two_proc_exhaustive_one_layer () =
  (* one layer, exhaustive: the gap after the layer is at most 1/3 on
     EVERY interleaving — the tight constant, verified *)
  let program () =
    let t = IIS.create ~procs:2 ~layers:1 () in
    fun pid ->
      let h = IIS.attach t (ctx ~procs:2 pid) in
      IIS.run h ~rule:(IIS.two_proc_optimal h)
        (if pid = 0 then 0.0 else 1.0)
  in
  let outcome =
    Pram.Explore.search ~way:Pram.Explore.Way.Naive ~max_schedules:2_000_000
      ~procs:2
      (Pram.Explore.instance program ~check:(fun d _ ->
           match (Pram.Driver.result d 0, Pram.Driver.result d 1) with
           | Some a, Some b -> Float.abs (a -. b) <= (1.0 /. 3.0) +. 1e-12
           | _ -> false))
  in
  check_bool "gap <= 1/3 after one layer, all interleavings" true
    (Pram.Explore.ok outcome)

let () =
  Alcotest.run "iis"
    [
      ( "immediate snapshot",
        [
          Alcotest.test_case "sequential views" `Quick test_is_sequential;
          QCheck_alcotest.to_alcotest qcheck_is_properties;
          Alcotest.test_case "exhaustive n=2 (with crashes)" `Slow
            test_is_exhaustive_two_procs;
        ] );
      ( "iterated agreement",
        [
          QCheck_alcotest.to_alcotest qcheck_two_proc_optimal_rate;
          QCheck_alcotest.to_alcotest qcheck_two_proc_validity;
          QCheck_alcotest.to_alcotest qcheck_midpoint_rate;
          Alcotest.test_case "layers_needed" `Quick test_layers_needed;
          Alcotest.test_case "tight constant, exhaustive one layer" `Slow
            test_two_proc_exhaustive_one_layer;
        ] );
    ]
