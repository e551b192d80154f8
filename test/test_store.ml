(* Tests for the sharded, batching keyed store (PR 7, [Wfa.Store]).

   The store's claim is purely differential: sharding and batching are
   invisible.  For every schedule, the committed state at each key must
   equal the sequential specification folded over that key's operation
   subsequence, identically for batched and unbatched handles:

   - the derived batch relations of [Store.Batch_spec] satisfy Property 1
     over chunker-shaped (homogeneous) universes, and their declarations
     hold pointwise at random reachable states — so Theorem 26 applies to
     the shard object unchanged;
   - a mixed (non-homogeneous) batch universe violates Property 1 — the
     reason the chunking policy exists;
   - batched == unbatched == per-key spec fold, sequentially (full
     response transcripts), under DPOR over every schedule of small
     configurations, under random ways, and under qcheck-randomized
     scripts on sim (procs 1..3) and native (procs 1..4);
   - batching is an O(batch) win in graph entries and memoized local
     work (stats and journal annotations agree), with the Property 1
     fallback degenerating to singleton commits on hostile runs.

   Final states on the simulator are observed with a verifier process:
   the store is created for procs+1 sessions, the explored program runs
   only the [procs] workers, and each enumerated schedule is replayed
   into the (procs+1)-process program whose last pid does nothing but
   [query] every key — [Explore.replay_encoded] completes pids in order,
   so the verifier runs after all workers and its reads are the final
   committed state.  Worker scripts are commuting mutators, so that
   state is schedule-independent and equal to the spec fold. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

module C = Spec.Counter_spec
module G = Spec.Gset_spec
module BC = Universal.Store.Batch_spec (Spec.Counter_spec)
module BG = Universal.Store.Batch_spec (Spec.Gset_spec)
module S_sim = Universal.Store.Make (Spec.Counter_spec) (Pram.Memory.Sim_v)
module S_direct = Universal.Store.Make (Spec.Counter_spec) (Pram.Memory.Direct_v)
module S_native = Universal.Store.Make (Spec.Counter_spec) (Pram.Native.Versioned)
module G_direct = Universal.Store.Make (Spec.Gset_spec) (Pram.Memory.Direct_v)

let ctx0 = Runtime.Ctx.make ~procs:1 ~pid:0 ()

(* --- Property 1 of the batch object ---------------------------------------- *)

let test_batch_spec_property1 () =
  (* Batches shaped like the flush-time chunker's output: homogeneous —
     all read-only, or pairwise-commuting mutators (plus the singleton
     chunks overwriters like Reset/Clear always land in). *)
  let counter_universe =
    [
      ("a", [ C.Inc 1; C.Inc 2; C.Dec 1 ]);
      ("a", [ C.Dec 2 ]);
      ("a", [ C.Read; C.Read ]);
      ("a", [ C.Reset 5 ]);
      ("b", [ C.Inc 3 ]);
      ("b", [ C.Read ]);
      ("c", [ C.Reset 0 ]);
    ]
  in
  (match
     Universal.Construction.check_property1
       (module BC : Spec.Object_spec.S
         with type operation = string * C.operation list)
       counter_universe
   with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "counter batch universe violates P1: %s" msg);
  let gset_universe =
    [
      ("x", [ G.Add 1; G.Add 2 ]);
      ("x", [ G.Members ]);
      ("x", [ G.Clear ]);
      ("y", [ G.Add 1 ]);
    ]
  in
  match
    Universal.Construction.check_property1
      (module BG : Spec.Object_spec.S
        with type operation = string * G.operation list)
      gset_universe
  with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "gset batch universe violates P1: %s" msg

let test_batch_spec_mixed_violates_p1 () =
  (* Why chunks are homogeneous: a mixed batch pins the read to its
     position inside the batch, so against another mutator batch at the
     same key the pair neither commutes (the read's response moves) nor
     overwrites in either direction. *)
  let universe = [ ("a", [ C.Inc 1; C.Read ]); ("a", [ C.Inc 2 ]) ] in
  match
    Universal.Construction.check_property1
      (module BC : Spec.Object_spec.S
        with type operation = string * C.operation list)
      universe
  with
  | Ok () -> Alcotest.fail "mixed batch should violate Property 1"
  | Error _ -> ()

(* The declared batch relations, checked pointwise at random reachable
   states (the same discharge the base specs get in test_spec). *)
module BCA = Spec.Object_spec.Algebra (BC)

let gen_homogeneous_batch rng =
  let key = [| "a"; "b" |].(Random.State.int rng 2) in
  match Random.State.int rng 4 with
  | 0 -> (key, List.init (1 + Random.State.int rng 3) (fun _ -> C.Read))
  | 1 -> (key, [ C.Reset (Random.State.int rng 5) ])
  | _ ->
      ( key,
        List.init
          (1 + Random.State.int rng 3)
          (fun _ ->
            if Random.State.bool rng then C.Inc (Random.State.int rng 4)
            else C.Dec (Random.State.int rng 4)) )

let qcheck_batch_declarations =
  QCheck.Test.make ~name:"batch relations hold pointwise" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 0xba7c |] in
      let state =
        BCA.reach
          (List.init (Random.State.int rng 4) (fun _ ->
               gen_homogeneous_batch rng))
      in
      let p = gen_homogeneous_batch rng and q = gen_homogeneous_batch rng in
      match BCA.check_declarations_at state p q with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)

(* --- sequential differential (direct backend) ------------------------------ *)

(* Expected flush transcript: keys in first-submit order, each key's
   subsequence folded from the initial state.  Keys are independent in
   the store, so this is the unique sequential outcome. *)
let spec_fold_by_key ops =
  let rev_order = ref [] in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (key, op) ->
      let st, acc =
        match Hashtbl.find_opt tbl key with
        | Some v -> v
        | None ->
            rev_order := key :: !rev_order;
            (C.initial, [])
      in
      let st', r = C.apply st op in
      Hashtbl.replace tbl key (st', r :: acc))
    ops;
  List.rev_map
    (fun key -> (key, List.rev (snd (Hashtbl.find tbl key))))
    !rev_order

let mixed_script ~seed ~keys ~n =
  let rng = Random.State.make [| seed; 0xbeef |] in
  List.init n (fun _ ->
      let key = Workload.key_name (Random.State.int rng keys) in
      let op =
        match Random.State.int rng 10 with
        | 0 | 1 | 2 | 3 -> C.Inc (1 + Random.State.int rng 5)
        | 4 | 5 -> C.Dec (1 + Random.State.int rng 5)
        | 6 | 7 | 8 -> C.Read
        | _ -> C.Reset (Random.State.int rng 10)
      in
      (key, op))

let run_direct_sequential ~batching ops =
  let store = S_direct.create ~shards:4 ~procs:1 () in
  let h = S_direct.attach ~batching store ctx0 in
  List.iter (fun (key, op) -> S_direct.submit h ~key op) ops;
  let resps = S_direct.flush h in
  (resps, S_direct.stats h)

let test_sequential_differential () =
  List.iter
    (fun seed ->
      let ops = mixed_script ~seed ~keys:3 ~n:60 in
      let expected = spec_fold_by_key ops in
      let batched, bstats =
        run_direct_sequential ~batching:(Universal.Store.Batched 8) ops
      in
      let unbatched, ustats =
        run_direct_sequential ~batching:Universal.Store.Unbatched ops
      in
      check_bool "batched = spec fold" true (batched = expected);
      check_bool "unbatched = spec fold" true (unbatched = expected);
      check_int "unbatched entries = ops" 60 ustats.S_direct.entries;
      check_int "ops accounted" 60 bstats.S_direct.ops;
      check_bool "batching shrinks entries" true
        (bstats.S_direct.entries < ustats.S_direct.entries))
    [ 1; 2; 3 ]

(* --- chunking, fallbacks, and the API guards -------------------------------- *)

(* Run under a telemetry + journal sink: each fallback is reported once,
   so the counter, the journal and the handle's stats agree. *)
let test_chunking_fallbacks () =
  let store = S_direct.create ~shards:2 ~procs:1 () in
  let counters = Telemetry.Counters.create ~families:2 ~procs:1 () in
  let journal = Tracing.Journal.create ~procs:1 () in
  let ctx =
    Runtime.Ctx.make
      ~sink:(Runtime.Sink.make ~telemetry:counters ~journal ())
      ~procs:1 ~pid:0 ()
  in
  let h = S_direct.attach ~batching:(Universal.Store.Batched 16) store ctx in
  List.iter
    (fun op -> S_direct.submit h ~key:"k" op)
    [ C.Inc 1; C.Inc 2; C.Reset 7; C.Dec 3; C.Read ];
  check_int "pending before flush" 5 (S_direct.pending_ops h);
  let resps = S_direct.flush h in
  check_bool "responses in submission order" true
    (resps = [ ("k", [ C.Unit; C.Unit; C.Unit; C.Unit; C.Value 4 ]) ]);
  let st = S_direct.stats h in
  (* chunks: [Inc;Inc] | [Reset] | [Dec] | [Read] — Reset breaks the
     commuting run twice, the trailing Read breaks the mutator kind *)
  check_int "entries" 4 st.S_direct.entries;
  check_int "batched ops" 2 st.S_direct.batched_ops;
  check_int "largest batch" 2 st.S_direct.largest_batch;
  check_int "fallbacks" 3 st.S_direct.fallbacks;
  check_int "fallback events" 3
    (Telemetry.Counters.total counters Telemetry.Event.Store_batch_fallback);
  check_int "fallback annotations" 3
    (List.length
       (List.filter
          (fun e -> e.Tracing.ev = Tracing.Annotate "store_batch_fallback")
          (Tracing.Journal.events journal)));
  check_int "pending drained" 0 (S_direct.pending_ops h);
  check_bool "query sees the committed state" true
    (S_direct.query h ~key:"k" C.Read = C.Value 4)

let test_api_guards () =
  let store = S_direct.create ~shards:3 ~procs:1 () in
  (try
     ignore (S_direct.attach ~batching:(Universal.Store.Batched 1) store ctx0);
     Alcotest.fail "Batched 1 should be rejected"
   with Invalid_argument _ -> ());
  let h = S_direct.attach store ctx0 in
  check_bool "execute commits a singleton" true
    (S_direct.execute h ~key:"a" (C.Inc 2) = C.Unit);
  S_direct.submit h ~key:"a" (C.Inc 1);
  (try
     ignore (S_direct.execute h ~key:"a" C.Read);
     Alcotest.fail "execute with pending operations should be rejected"
   with Invalid_argument _ -> ());
  (try
     ignore (S_direct.query h ~key:"a" (C.Inc 1));
     Alcotest.fail "query of a mutator should be rejected"
   with Invalid_argument _ -> ());
  ignore (S_direct.flush h);
  check_bool "query after flush" true
    (S_direct.query h ~key:"a" C.Read = C.Value 3);
  check_int "shard placement is stable" (S_direct.shard_of store "a")
    (S_direct.shard_of store "a");
  List.iter
    (fun key ->
      let s = S_direct.shard_of store key in
      check_bool "shard in range" true (s >= 0 && s < S_direct.shards store))
    [ "a"; "zz"; Workload.key_name 17 ]

let test_attach_variant_fixed_at_create () =
  (* Every shard's scan variant is fixed when the store is created (the
     construction default, Adaptive), so [attach ~variant] may only
     restate it: a handle on another protocol would mix scan variants on
     one anchor. *)
  let store = S_direct.create ~shards:2 ~procs:1 () in
  List.iter
    (fun variant ->
      match S_direct.attach ~variant store ctx0 with
      | _ -> Alcotest.fail "attach with a second scan variant should raise"
      | exception Invalid_argument _ -> ())
    Snapshot.Scan.[ Lattice; Optimized; Plain ];
  let h = S_direct.attach ~variant:Snapshot.Scan.Adaptive store ctx0 in
  check_bool "restating the shards' variant is accepted" true
    (S_direct.execute h ~key:"a" (C.Inc 1) = C.Unit)

(* Causes are attributed to their shard, so a grid with fewer families
   than the store has shards is refused at attach, not silently ignored. *)
let test_attach_rejects_narrow_grid () =
  let store = S_direct.create ~shards:4 ~procs:1 () in
  let ctx families =
    Runtime.Ctx.make
      ~sink:
        (Runtime.Sink.make
           ~telemetry:(Telemetry.Counters.create ~families ~procs:1 ())
           ())
      ~procs:1 ~pid:0 ()
  in
  (match S_direct.attach store (ctx 3) with
  | _ -> Alcotest.fail "attach with 3 families for 4 shards should raise"
  | exception Invalid_argument _ -> ());
  let h = S_direct.attach store (ctx 4) in
  check_bool "a grid with a family per shard is accepted" true
    (S_direct.execute h ~key:"a" (C.Inc 1) = C.Unit)

let test_rebuilds_attributed_to_their_shard () =
  (* An increment and a reset of one key, run concurrently: neither
     execute's snapshot sees the other's entry, so the read that follows
     finds a non-commuting, precedence-incomparable pair and rebuilds its
     memo.  Each rebuild is attributed to the key's shard by the call
     that performed it — here a query — so the telemetry totals equal
     the handles' rebuild counters. *)
  let procs = 2 in
  let counters = Telemetry.Counters.create ~families:2 ~procs () in
  let sink = Runtime.Sink.make ~telemetry:counters () in
  let store = ref None in
  let program () =
    let t = S_sim.create ~shards:2 ~procs () in
    store := Some t;
    fun pid ->
      let h =
        S_sim.attach ~batching:Universal.Store.Unbatched t
          (Runtime.Ctx.make ~sink ~procs ~pid ())
      in
      ignore (S_sim.execute h ~key:"k" (if pid = 0 then C.Inc 1 else C.Reset 5));
      ignore (S_sim.query h ~key:"k" C.Read);
      (S_sim.stats h).S_sim.rebuilds
  in
  let d = Pram.Driver.create ~procs program in
  Pram.Scheduler.run (Pram.Scheduler.round_robin ()) d;
  let rebuilds =
    List.fold_left
      (fun acc p -> acc + Option.get (Pram.Driver.result d p))
      0 [ 0; 1 ]
  in
  let shard = S_sim.shard_of (Option.get !store) "k" in
  check_bool "the concurrent reset forces rebuilds" true (rebuilds > 0);
  check_int "every rebuild is attributed" rebuilds
    (Telemetry.Counters.total counters Telemetry.Event.Store_rebuild);
  check_int "to the key's shard" rebuilds
    (Telemetry.Counters.family_total counters ~family:shard
       Telemetry.Event.Store_rebuild)

let test_gset_store () =
  let store = G_direct.create ~shards:2 ~procs:1 () in
  let h = G_direct.attach ~batching:(Universal.Store.Batched 8) store ctx0 in
  List.iter
    (fun (k, op) -> G_direct.submit h ~key:k op)
    [
      ("s", G.Add 3);
      ("s", G.Add 1);
      ("t", G.Add 9);
      ("s", G.Members);
      ("s", G.Clear);
      ("s", G.Add 2);
    ];
  let resps = G_direct.flush h in
  check_bool "gset transcript" true
    (resps
    = [
        ("s", [ G.Unit; G.Unit; G.Elements [ 1; 3 ]; G.Unit; G.Unit ]);
        ("t", [ G.Unit ]);
      ]);
  check_bool "members after clear+add" true
    (G_direct.query h ~key:"s" G.Members = G.Elements [ 2 ]);
  check_bool "other key untouched by clear" true
    (G_direct.query h ~key:"t" G.Members = G.Elements [ 9 ])

(* --- exhaustive differential on the simulator ------------------------------- *)

let explore_keys = [ "a"; "b" ]

let explore_script = function
  | 0 -> [ ("a", C.Inc 1); ("b", C.Dec 2) ]
  | _ -> [ ("a", C.Inc 3) ]

let fold_value script procs key =
  List.fold_left
    (fun acc pid ->
      List.fold_left
        (fun acc (k, op) ->
          if k <> key then acc
          else match op with C.Inc n -> acc + n | C.Dec n -> acc - n | _ -> acc)
        acc (script pid))
    0
    (List.init procs Fun.id)

let explore_expected =
  List.map
    (fun key -> (key, C.Value (fold_value explore_script 2 key)))
    explore_keys

(* The verifier-pid program: [procs] workers plus one querying process.
   The same setup serves the worker-only exploration driver (procs) and
   the replay driver (procs + 1). *)
let store_setup ~batching ~procs ~script ~keys () =
  let store = S_sim.create ~shards:2 ~procs:(procs + 1) () in
  let ctxs = Runtime.Ctx.family ~procs:(procs + 1) () in
  fun pid ->
    if pid < procs then begin
      let h = S_sim.attach ~batching store ctxs.(pid) in
      List.iter (fun (key, op) -> S_sim.submit h ~key op) (script pid);
      ignore (S_sim.flush h);
      []
    end
    else
      let h = S_sim.attach store ctxs.(procs) in
      List.map (fun key -> (key, S_sim.query h ~key C.Read)) keys

let verifier_sees ~batching ~procs ~script ~keys ~expected sched =
  let d, _ =
    Pram.Explore.replay_encoded ~procs:(procs + 1)
      (store_setup ~batching ~procs ~script ~keys)
      sched
  in
  Pram.Driver.result d procs = Some expected

(* One operation per worker, same key: the full DPOR closure (~8.6k
   classes) of two concurrent commits racing on one shard, checked with
   a verifier replay per class. *)
let small_script = function
  | 0 -> [ ("a", C.Inc 1) ]
  | _ -> [ ("a", C.Inc 3) ]

let small_expected = [ ("a", C.Value (fold_value small_script 2 "a")) ]

let test_explore_differential () =
  List.iter
    (fun batching ->
      let setup =
        store_setup ~batching ~procs:2 ~script:small_script ~keys:[ "a" ]
      in
      let outcome =
        Pram.Explore.search ~way:Pram.Explore.Way.systematic ~procs:2
          (Pram.Explore.instance setup ~check:(fun _d sched ->
               verifier_sees ~batching ~procs:2 ~script:small_script
                 ~keys:[ "a" ] ~expected:small_expected sched))
      in
      check_bool "every DPOR schedule folds to the spec" true
        (Pram.Explore.ok outcome);
      check_bool "non-trivial schedule count" true
        (outcome.Pram.Explore.explored > 1))
    [ Universal.Store.Batched 4; Universal.Store.Unbatched ]

let test_explore_differential_sampled () =
  (* The richer two-key program (a real multi-op chunk on the batched
     side) once had ~330k DPOR classes; the adaptive scan's bounded
     retry collapses most escalation branches, so the closure now
     completes well inside the budget (kept as a safety net).  Demand
     zero disagreements across all of it. *)
  List.iter
    (fun batching ->
      let setup =
        store_setup ~batching ~procs:2 ~script:explore_script
          ~keys:explore_keys
      in
      let outcome =
        Pram.Explore.search ~way:Pram.Explore.Way.systematic
          ~max_schedules:1_500 ~procs:2
          (Pram.Explore.instance setup ~check:(fun _d sched ->
               verifier_sees ~batching ~procs:2 ~script:explore_script
                 ~keys:explore_keys ~expected:explore_expected sched))
      in
      check_bool "every DPOR schedule folds to the spec" true
        (Pram.Explore.ok outcome);
      check_bool "non-trivial schedule count" true
        (outcome.Pram.Explore.explored > 10))
    [ Universal.Store.Batched 4; Universal.Store.Unbatched ]

let test_random_ways_differential () =
  List.iter
    (fun batching ->
      let setup =
        store_setup ~batching ~procs:2 ~script:explore_script
          ~keys:explore_keys
      in
      let outcome =
        Pram.Explore.search
          ~way:(Pram.Explore.Way.Uniform { seed = 2026; count = 40 })
          ~jobs:1 ~procs:2
          (Pram.Explore.instance
             ~check:(fun _d sched ->
               verifier_sees ~batching ~procs:2 ~script:explore_script
                 ~keys:explore_keys ~expected:explore_expected sched)
             setup)
      in
      check_bool "random ways: no failures" true
        (outcome.Pram.Explore.failures = []);
      check_int "random ways: all samples ran" 40
        outcome.Pram.Explore.coverage.Pram.Explore.cov_sampled)
    [ Universal.Store.Batched 4; Universal.Store.Unbatched ]

(* --- randomized differential: sim (procs 1..3) ------------------------------ *)

let qcheck_store_sim =
  QCheck.Test.make ~name:"store: sim random schedules = spec fold" ~count:40
    QCheck.(triple (int_bound 1_000_000) (int_range 1 3) (int_range 2 6))
    (fun (seed, procs, max_batch) ->
      let keys = 3 in
      let script =
        Workload.keyed_counter_script ~seed ~keys ~theta:0.9
          ~read_fraction:0.0 ~ops_per_proc:4
      in
      let key_names = List.init keys Workload.key_name in
      let expected =
        List.map
          (fun key -> (key, C.Value (fold_value script procs key)))
          key_names
      in
      let run batching =
        let setup = store_setup ~batching ~procs ~script ~keys:key_names in
        let d = Pram.Driver.create ~procs setup in
        Pram.Scheduler.run ~max_steps:5_000_000
          (Pram.Scheduler.random ~seed ())
          d;
        verifier_sees ~batching ~procs ~script ~keys:key_names ~expected
          (Pram.Driver.schedule d)
      in
      run (Universal.Store.Batched max_batch)
      && run Universal.Store.Unbatched)

(* --- randomized differential: native (procs 1..4) --------------------------- *)

let qcheck_store_native =
  QCheck.Test.make ~name:"store: native parallel = spec fold" ~count:15
    QCheck.(pair (int_bound 1_000_000) (int_range 1 4))
    (fun (seed, procs) ->
      let keys = 3 in
      let script =
        Workload.keyed_counter_script ~seed ~keys ~theta:0.5
          ~read_fraction:0.0 ~ops_per_proc:6
      in
      let key_names = List.init keys Workload.key_name in
      let expected =
        List.map
          (fun key -> (key, C.Value (fold_value script procs key)))
          key_names
      in
      let run batching =
        let store = S_native.create ~shards:2 ~procs:(procs + 1) () in
        let ctxs = Runtime.Ctx.family ~procs:(procs + 1) () in
        ignore
          (Runtime.run_domains ~procs (fun pid ->
               let h = S_native.attach ~batching store ctxs.(pid) in
               List.iter
                 (fun (key, op) -> S_native.submit h ~key op)
                 (script pid);
               ignore (S_native.flush h)));
        (* the joining domain reads after every worker completed *)
        let h = S_native.attach store ctxs.(procs) in
        List.map (fun key -> (key, S_native.query h ~key C.Read)) key_names
        = expected
      in
      run (Universal.Store.Batched 4) && run Universal.Store.Unbatched)

(* --- the O(batch) regression ------------------------------------------------ *)

let publishes_in_journal journal =
  List.fold_left
    (fun acc (e : Tracing.event) ->
      match e.Tracing.ev with
      | Tracing.Annotate "publish" -> acc + 1
      | _ -> acc)
    0
    (Tracing.Journal.events journal)

(* Round-robin at flush granularity across [procs] handles on one shard:
   every flush's entry is later merged by each PEER's memo, so total
   replays track the number of published ENTRIES — which batching
   divides by the batch size.  (A solo handle never replays at all: its
   own entries are absorbed at publish time, which is why this test
   needs contention to expose the O(batch) win in local work.) *)
let test_obatch_regression () =
  let procs = 3 and rounds = 6 and batch = 8 in
  let total = procs * rounds * batch in
  let run batching =
    let journal = Tracing.Journal.create ~procs () in
    let sink = Runtime.Sink.make ~journal () in
    let store = S_direct.create ~shards:1 ~procs () in
    let handles =
      Array.init procs (fun pid ->
          S_direct.attach ~batching store (Runtime.Ctx.make ~sink ~procs ~pid ()))
    in
    for _round = 1 to rounds do
      Array.iter
        (fun h ->
          for _ = 1 to batch do
            S_direct.submit h ~key:"hot" (C.Inc 1)
          done;
          ignore (S_direct.flush h))
        handles
    done;
    check_bool "final value" true
      (S_direct.query handles.(0) ~key:"hot" C.Read = C.Value total);
    let sum f = Array.fold_left (fun acc h -> acc + f (S_direct.stats h)) 0 handles in
    let entries = sum (fun s -> s.S_direct.entries) in
    let stats0 = S_direct.stats handles.(0) in
    ( entries,
      sum (fun s -> s.S_direct.batched_ops),
      stats0.S_direct.largest_batch,
      sum (fun s -> s.S_direct.fallbacks),
      sum (fun s -> s.S_direct.spec_replays),
      publishes_in_journal journal )
  in
  let b_entries, b_bops, b_largest, b_fb, b_replays, b_pub =
    run (Universal.Store.Batched batch)
  in
  let u_entries, _, _, u_fb, u_replays, u_pub = run Universal.Store.Unbatched in
  check_int "batched entries = flushes" (procs * rounds) b_entries;
  check_int "unbatched entries = ops" total u_entries;
  check_int "batched publishes (journal view)" (procs * rounds) b_pub;
  check_int "unbatched publishes (journal view)" total u_pub;
  check_int "largest batch = cap" batch b_largest;
  check_int "every op rode a batch" total b_bops;
  check_int "no fallbacks on a commuting run" 0 b_fb;
  check_int "unbatched handles never count fallbacks" 0 u_fb;
  (* each published entry is merged at most once by each peer memo *)
  check_bool "batched replays are O(entries)" true
    (b_replays <= procs * b_entries);
  check_bool "memoized local work shrinks with batching" true
    (b_replays * 4 < u_replays)

(* --- the windowed commutes gate ---------------------------------------------- *)

(* Counter_spec with its [commutes] calls counted: the chunker's checks
   and every summary check of the shards' memos. *)
module Commutes_counted = struct
  include Spec.Counter_spec

  let calls = ref 0

  let commutes p q =
    incr calls;
    Spec.Counter_spec.commutes p q
end

module S_counted =
  Universal.Store.Make (Commutes_counted) (Pram.Memory.Direct_v)

(* 4 handles take round-robin turns of 64 submits then a flush over 8
   zipfian keys.  Nearly every batch is a distinct operation, so a
   summary holding the whole history makes each commit's check grow with
   the run; the frontier-pruned summary keeps it flat.  Exact counts, so
   the gate does not depend on the host. *)
let test_windowed_commutes () =
  let procs = 4 and turn = 64 and window = 4096 and total = 40_960 in
  let script =
    Workload.keyed_counter_script ~seed:1 ~keys:8 ~theta:0.99
      ~read_fraction:0.0 ~ops_per_proc:(total / procs)
  in
  let store = S_counted.create ~procs () in
  let handles =
    Array.init procs (fun pid ->
        S_counted.attach ~batching:(Universal.Store.Batched 64) store
          (Runtime.Ctx.make ~procs ~pid ()))
  in
  let pending = Array.init procs script in
  let per_window = Array.make (total / window) 0 in
  let ops = ref 0 in
  while !ops < total do
    Array.iteri
      (fun pid h ->
        for _ = 1 to turn do
          match pending.(pid) with
          | (key, op) :: rest ->
              S_counted.submit h ~key op;
              pending.(pid) <- rest
          | [] -> assert false
        done;
        ignore (S_counted.flush h);
        ops := !ops + turn;
        if !ops mod window = 0 then begin
          per_window.((!ops / window) - 1) <- !Commutes_counted.calls;
          Commutes_counted.calls := 0
        end)
      handles
  done;
  let first = per_window.(0)
  and last = per_window.(Array.length per_window - 1) in
  check_bool
    (Printf.sprintf
       "commutes per op, last window (%d) <= 2 x first window (%d)"
       (last / window) (first / window))
    true
    (last <= 2 * first)

(* --- suite ------------------------------------------------------------------- *)

let suite =
  [
    Alcotest.test_case "batch spec satisfies Property 1" `Quick
      test_batch_spec_property1;
    Alcotest.test_case "mixed batches violate Property 1" `Quick
      test_batch_spec_mixed_violates_p1;
    QCheck_alcotest.to_alcotest qcheck_batch_declarations;
    Alcotest.test_case "sequential differential" `Quick
      test_sequential_differential;
    Alcotest.test_case "chunking and fallbacks" `Quick test_chunking_fallbacks;
    Alcotest.test_case "api guards" `Quick test_api_guards;
    Alcotest.test_case "gset store" `Quick test_gset_store;
    Alcotest.test_case "DPOR differential (procs 2 + verifier)" `Quick
      test_explore_differential;
    Alcotest.test_case "DPOR differential, sampled two-key" `Quick
      test_explore_differential_sampled;
    Alcotest.test_case "random ways differential" `Quick
      test_random_ways_differential;
    QCheck_alcotest.to_alcotest qcheck_store_sim;
    QCheck_alcotest.to_alcotest qcheck_store_native;
    Alcotest.test_case "O(batch) regression" `Quick test_obatch_regression;
    Alcotest.test_case "attach keeps the variant fixed at create" `Quick
      test_attach_variant_fixed_at_create;
    Alcotest.test_case "attach rejects a grid narrower than the shards"
      `Quick test_attach_rejects_narrow_grid;
    Alcotest.test_case "rebuilds attributed to their shard" `Quick
      test_rebuilds_attributed_to_their_shard;
    Alcotest.test_case "commutes per op stay flat over windows" `Quick
      test_windowed_commutes;
  ]

let () = Alcotest.run "store" [ ("store", suite) ]
