(* Tests for the Section 6 atomic scan and its baselines.

   The central checks:
   - Lemma 32 (comparability): values returned by concurrent Scans are
     always comparable in the lattice, under random schedules and crashes;
   - Theorem 33 (linearizability): recorded Scan histories pass the
     linearizability checker against the scan object's sequential spec;
   - Section 6.2 (cost): a Scan performs exactly n^2+n+1 reads / n+2
     writes (plain) and n^2-1 reads / n+1 writes (optimized);
   - the naive collect baseline FAILS the checker on a crafted schedule;
   - the double-collect baseline starves under an adversary, while our
     scan and the Afek et al. baseline terminate. *)

module L = Semilattice.Nat_max
module Scan = Snapshot.Scan.Make (L) (Pram.Memory.Sim_v)

(* Direct-backend instantiations for sequential (outside-the-driver)
   tests. *)
module Scan_d = Snapshot.Scan.Make (L) (Pram.Memory.Direct_v)
module Arr_d =
  Snapshot.Snapshot_array.Make (Snapshot.Slot_value.Int) (Pram.Memory.Direct_v)
module DC_d =
  Snapshot.Double_collect.Make (Snapshot.Slot_value.Int) (Pram.Memory.Direct)
module AF_d = Snapshot.Afek.Make (Snapshot.Slot_value.Int) (Pram.Memory.Direct)
module Set_lat = Semilattice.Set_union (struct
  type t = int

  let compare = Int.compare
  let pp = Format.pp_print_int
end)

module Scan_set = Snapshot.Scan.Make (Set_lat) (Pram.Memory.Sim_v)

module Scan_seq_spec = Snapshot.Scan_spec.Make (L)
module Scan_check = Lincheck.Make (Scan_seq_spec)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ctx ~procs pid = Runtime.Ctx.make ~procs ~pid ()

(* --- basic sequential behaviour ---------------------------------------- *)

let test_scan_sequential () =
  let t = Scan_d.create ~variant:Snapshot.Scan.Optimized ~procs:3 in
  let h = Array.init 3 (fun pid -> Scan_d.attach t (ctx ~procs:3 pid)) in
  check_int "first scan returns own value" 5 (Scan_d.scan h.(0) 5);
  check_int "second process sees the join" 7 (Scan_d.scan h.(1) 7);
  check_int "read_max sees the join" 7 (Scan_d.read_max h.(2));
  Scan_d.write_l h.(2) 9;
  check_int "after write_l" 9 (Scan_d.read_max h.(0))

let test_scan_plain_equals_optimized () =
  let run variant =
    let t = Scan_d.create ~variant ~procs:2 in
    let h0 = Scan_d.attach t (ctx ~procs:2 0) in
    let h1 = Scan_d.attach t (ctx ~procs:2 1) in
    let a = Scan_d.scan h0 3 in
    let b = Scan_d.scan h1 8 in
    let c = Scan_d.read_max h0 in
    (a, b, c)
  in
  let plain = run Snapshot.Scan.Plain in
  check_bool "optimized agrees sequentially" true
    (plain = run Snapshot.Scan.Optimized);
  check_bool "adaptive agrees sequentially" true
    (plain = run Snapshot.Scan.Adaptive);
  check_bool "lattice agrees sequentially" true
    (plain = run Snapshot.Scan.Lattice)

(* --- Section 6.2 cost formulas (experiment E5's unit-level form) ------- *)

let scan_cost ~procs ~variant =
  let program () =
    let t = Scan.create ~variant ~procs in
    fun pid -> Scan.scan (Scan.attach t (ctx ~procs pid)) (pid + 1)
  in
  let d = Pram.Driver.create ~procs program in
  (* run only process 0 to completion; count its steps *)
  check_bool "finished" true (Pram.Driver.run_solo d 0);
  Pram.Driver.steps d 0

let test_cost_plain () =
  List.iter
    (fun n ->
      let reads, writes = Snapshot.Scan.cost_formula ~procs:n Snapshot.Scan.Plain in
      check_int
        (Printf.sprintf "plain scan cost at n=%d" n)
        (reads + writes)
        (scan_cost ~procs:n ~variant:Snapshot.Scan.Plain))
    [ 1; 2; 3; 5; 8 ]

let test_cost_optimized () =
  List.iter
    (fun n ->
      let reads, writes =
        Snapshot.Scan.cost_formula ~procs:n Snapshot.Scan.Optimized
      in
      check_int
        (Printf.sprintf "optimized scan cost at n=%d" n)
        (reads + writes)
        (scan_cost ~procs:n ~variant:Snapshot.Scan.Optimized))
    [ 1; 2; 3; 5; 8 ]

let test_cost_adaptive () =
  (* A solo run never escalates, so the adaptive fast path's exact
     count — 4 reads per peer plus the column-0 publish — is an
     equality, like the two paper formulas above. *)
  List.iter
    (fun n ->
      let reads, writes =
        Snapshot.Scan.cost_formula ~procs:n Snapshot.Scan.Adaptive
      in
      check_int
        (Printf.sprintf "adaptive scan cost at n=%d" n)
        (reads + writes)
        (scan_cost ~procs:n ~variant:Snapshot.Scan.Adaptive))
    [ 1; 2; 3; 5; 8 ]

let test_cost_lattice () =
  (* The lattice descent is all fixed-trip loops and a solo run stays in
     generation 1, so — like the paper formulas — the count is an
     equality: 2(n-1) collect/fence reads plus ceil(log2 n) levels of n
     slot peeks, and ceil(log2 n) + 3 writes.  (test_metrics additionally
     pins the same equality per-pid under a contended round-robin run at
     procs 1..8.) *)
  List.iter
    (fun n ->
      let reads, writes =
        Snapshot.Scan.cost_formula ~procs:n Snapshot.Scan.Lattice
      in
      check_int
        (Printf.sprintf "lattice scan cost at n=%d" n)
        (reads + writes)
        (scan_cost ~procs:n ~variant:Snapshot.Scan.Lattice))
    [ 1; 2; 3; 5; 8 ]

(* --- multi-shot reuse: generations past the pool boundary --------------- *)

let test_lattice_multishot_reuse () =
  (* Three processes interleave 4 rounds of lattice scans each — 12
     generations against a pool of [lattice_pool = 4] trees, so every
     tree is recycled at least twice.  Sequentially every scan must
     return the exact join of all contributions so far; stale stamps
     from earlier occupants of a recycled tree must never leak in. *)
  let procs = 3 in
  let t = Scan_d.create ~variant:Snapshot.Scan.Lattice ~procs in
  let h = Array.init procs (fun pid -> Scan_d.attach t (ctx ~procs pid)) in
  let expected = ref 0 in
  for round = 0 to 3 do
    for pid = 0 to procs - 1 do
      let v = (round * 10) + pid + 1 in
      expected := max !expected v;
      check_int
        (Printf.sprintf "round %d pid %d sees the running join" round pid)
        !expected
        (Scan_d.scan h.(pid) v)
    done
  done;
  check_int "final read_max" !expected (Scan_d.read_max h.(0))

(* --- pool recycling: the pool bounds memory, not progress --------------- *)

let test_lattice_recycled_tree_fenced () =
  (* Pid 0 enters generation 1 and posts into tree [la1] (stamp 1).  Pid
     1 then finishes generations 1..5 solo; generation 5 recycles [la1]
     and reposts into it while pid 0 is still inside generation 1.  The
     stamps hide pid 1's posts from pid 0's descent, and pid 0's fence
     sees generation 5 and retries into it: two descents, one solo
     descent (7 steps) each, and the result is everything pid 1
     wrote. *)
  let procs = 2 in
  let c = Telemetry.Counters.create ~procs () in
  let sink = Runtime.Sink.make ~telemetry:c () in
  let program () =
    let t = Scan.create ~variant:Snapshot.Scan.Lattice ~procs in
    fun pid ->
      let h = Scan.attach t (Runtime.Ctx.make ~sink ~procs ~pid ()) in
      if pid = 0 then Scan.read_max h
      else begin
        for i = 1 to 5 do
          Scan.write_l h i;
          ignore (Scan.read_max h)
        done;
        0
      end
  in
  let d = Pram.Driver.create ~procs program in
  List.iter
    (fun reg ->
      (match Pram.Driver.pending d 0 with
      | Some pv ->
          Alcotest.(check string) "pid 0's next register" reg
            pv.Pram.Driver.v_reg_name
      | None -> Alcotest.fail "pid 0 finished early");
      Pram.Driver.step d 0)
    [ "scan.gen[0]"; "scan[1][0]"; "scan.la1[0][0][0]" ];
  check_bool "pid 1 finishes five generations" true (Pram.Driver.run_solo d 1);
  check_bool "pid 0 finishes" true (Pram.Driver.run_solo d 0);
  check_int "two descents: the fence retried" 2
    (Telemetry.Counters.get c ~pid:0 ~family:0 Telemetry.Event.Classifier_descend);
  check_int "pid 0 steps" 14 (Pram.Driver.steps d 0);
  check_int "pid 0 returns pid 1's writes" 5
    (Option.get (Pram.Driver.result d 0))

(* --- bounded retry: the escalation rate drops under contention ---------- *)

let test_adaptive_retry_reduces_escalations () =
  (* The same contended workload (three processes, three scans each,
     seeded random schedules) with the fast collect allowed one attempt
     vs the default two: a single racing writer invalidates at most one
     window, so the second attempt turns most escalations back into
     fast-path completions.  Gate on the aggregate [Scan_escalation]
     counts: strictly fewer with retries, and never more per seed. *)
  let escalations ~retries ~seed =
    let procs = 3 in
    let c = Telemetry.Counters.create ~procs () in
    let program () =
      let t = Scan.create ~variant:Snapshot.Scan.Adaptive ~procs in
      fun pid ->
        let sink = Runtime.Sink.make ~telemetry:c () in
        let h = Scan.attach ~retries t (Runtime.Ctx.make ~sink ~procs ~pid ()) in
        for i = 1 to 3 do
          ignore (Scan.scan h ((pid * 100) + i))
        done
    in
    let d = Pram.Driver.create ~procs program in
    Pram.Scheduler.run (Pram.Scheduler.random ~seed ()) d;
    for p = 0 to procs - 1 do
      if Pram.Driver.runnable d p then ignore (Pram.Driver.run_solo d p)
    done;
    Telemetry.Counters.total c Telemetry.Event.Scan_escalation
  in
  let seeds = List.init 24 (fun i -> 1000 + (17 * i)) in
  let one, two =
    List.fold_left
      (fun (a1, a2) seed ->
        let e1 = escalations ~retries:1 ~seed in
        let e2 = escalations ~retries:2 ~seed in
        check_bool
          (Printf.sprintf "seed %d: retrying never escalates more" seed)
          true (e2 <= e1);
        (a1 + e1, a2 + e2))
      (0, 0) seeds
  in
  check_bool "the one-attempt runs do escalate" true (one > 0);
  check_bool "bounded retry strictly reduces total escalations" true (two < one)

(* --- DPOR-complete cross-variant differential --------------------------- *)

(* The schedule spaces of two variants cannot be matched step for step
   (their access sequences differ), so the differential compares the
   complete SETS of reachable outcomes instead: explore the
   write_l/read_max workload to DPOR completeness under each variant and
   collect every result vector.  Outcomes are a function of the
   Mazurkiewicz class, so the collected set is the full set of reachable
   outcomes, and two variants implement the same object on every
   explored schedule iff the sets are byte-identical. *)
let variant_outcome_set ?retries ~procs ~active variant =
  let results = Hashtbl.create 16 in
  let program () =
    let t = Scan_set.create ~variant ~procs in
    fun pid ->
      let h = Scan_set.attach ?retries t (ctx ~procs pid) in
      if pid < active then begin
        Scan_set.write_l h (Set_lat.of_list [ pid + 1 ]);
        Set_lat.elements (Scan_set.read_max h)
      end
      else []
  in
  let outcome =
    Pram.Explore.search ~way:Pram.Explore.Way.systematic ~procs
      (Pram.Explore.instance program ~check:(fun d _sched ->
           let v = List.init procs (fun p -> Pram.Driver.result d p) in
           Hashtbl.replace results v ();
           true))
  in
  let set = Hashtbl.fold (fun k () acc -> k :: acc) results [] in
  (outcome, List.sort compare set)

(* The same workload over the double-collect baseline (sorted non-default
   slots stand in for the set elements), as an implementation-independent
   reference point for the outcome sets. *)
let dc_outcome_set ~procs ~active =
  let module DC2 =
    Snapshot.Double_collect.Make (Snapshot.Slot_value.Int) (Pram.Memory.Sim)
  in
  let results = Hashtbl.create 16 in
  let program () =
    let t = DC2.create ~procs in
    fun pid ->
      let h = DC2.attach t (ctx ~procs pid) in
      if pid < active then begin
        DC2.update h (pid + 1);
        DC2.snapshot_exn h |> Array.to_list
        |> List.filter (fun v -> v <> 0)
        |> List.sort compare
      end
      else []
  in
  let outcome =
    Pram.Explore.search ~way:Pram.Explore.Way.systematic ~procs
      (Pram.Explore.instance program ~check:(fun d _sched ->
           let v = List.init procs (fun p -> Pram.Driver.result d p) in
           Hashtbl.replace results v ();
           true))
  in
  let set = Hashtbl.fold (fun k () acc -> k :: acc) results [] in
  (outcome, List.sort compare set)

let test_dpor_differential_p2 () =
  (* [retries:1] pins the pre-retry adaptive: with the default bounded
     retry a single peer write can only invalidate one of the two
     windows, so the escalation branch would fall out of the closure. *)
  let o_a, s_a =
    variant_outcome_set ~retries:1 ~procs:2 ~active:2 Snapshot.Scan.Adaptive
  in
  let o_a2, s_a2 =
    variant_outcome_set ~procs:2 ~active:2 Snapshot.Scan.Adaptive
  in
  let o_o, s_o =
    variant_outcome_set ~procs:2 ~active:2 Snapshot.Scan.Optimized
  in
  let o_p, s_p = variant_outcome_set ~procs:2 ~active:2 Snapshot.Scan.Plain in
  let o_l, s_l = variant_outcome_set ~procs:2 ~active:2 Snapshot.Scan.Lattice in
  let o_dc, s_dc = dc_outcome_set ~procs:2 ~active:2 in
  check_bool "adaptive closure complete" true (Pram.Explore.ok o_a);
  check_bool "adaptive (bounded retry) closure complete" true
    (Pram.Explore.ok o_a2);
  check_bool "optimized closure complete" true (Pram.Explore.ok o_o);
  check_bool "plain closure complete" true (Pram.Explore.ok o_p);
  check_bool "lattice closure complete" true (Pram.Explore.ok o_l);
  check_bool "double-collect closure complete" true (Pram.Explore.ok o_dc);
  (* the adaptive fast path escalates on some of these schedules, so the
     contended branch is inside the explored closure *)
  check_bool "adaptive closure non-trivial" true
    (o_a.Pram.Explore.explored > 10);
  check_bool "optimized closure non-trivial" true
    (o_o.Pram.Explore.explored > 500);
  check_bool "lattice closure non-trivial" true
    (o_l.Pram.Explore.explored > 10);
  check_bool "adaptive = optimized outcome sets" true (s_a = s_o);
  check_bool "adaptive = bounded-retry outcome sets" true (s_a = s_a2);
  check_bool "adaptive = plain outcome sets" true (s_a = s_p);
  check_bool "lattice = optimized outcome sets" true (s_l = s_o);
  check_bool "adaptive = double-collect outcome sets" true (s_a = s_dc);
  (* the workload's three linearizable outcomes, spelled out: the reader
     that linearizes first misses the other writer's element *)
  check_int "all three outcomes reached" 3 (List.length s_a)

let test_dpor_differential_p3 () =
  (* Third process idle but attached: its anchor slot is in every scan,
     so the collects and validations genuinely span three columns.
     (Plain at this size explores the same 8_613-class closure as
     Optimized but takes ~10s; the p2 test above already ties Plain
     in.) *)
  let o_a, s_a =
    variant_outcome_set ~retries:1 ~procs:3 ~active:2 Snapshot.Scan.Adaptive
  in
  let o_o, s_o =
    variant_outcome_set ~procs:3 ~active:2 Snapshot.Scan.Optimized
  in
  let o_l, s_l = variant_outcome_set ~procs:3 ~active:2 Snapshot.Scan.Lattice in
  check_bool "adaptive closure complete" true (Pram.Explore.ok o_a);
  check_bool "optimized closure complete" true (Pram.Explore.ok o_o);
  check_bool "lattice closure complete" true (Pram.Explore.ok o_l);
  check_bool "adaptive closure non-trivial" true
    (o_a.Pram.Explore.explored > 50);
  check_bool "optimized closure non-trivial" true
    (o_o.Pram.Explore.explored > 1_000);
  (* the lattice access sequence is mostly single-writer slot posts and
     reads, so DPOR collapses it to a couple dozen classes at this size *)
  check_bool "lattice closure non-trivial" true
    (o_l.Pram.Explore.explored > 10);
  check_bool "adaptive = optimized outcome sets" true (s_a = s_o);
  check_bool "lattice = optimized outcome sets" true (s_l = s_o);
  check_int "all three outcomes reached" 3 (List.length s_a)

(* --- lattice under crashes: death mid-descend breaks nothing ------------ *)

let test_lattice_crash_mid_descend () =
  (* Crash-branching exploration of the lattice workload (procs 3, one
     crash): branches include a process dying at every point of its
     classifier descent — after the announce, between slot posts, before
     the fence.  Survivors must still agree: every completed read_max
     pair stays lattice-comparable, and each completed process's result
     contains its own contribution. *)
  let procs = 3 in
  let program () =
    let t = Scan_set.create ~variant:Snapshot.Scan.Lattice ~procs in
    fun pid ->
      let h = Scan_set.attach t (ctx ~procs pid) in
      Scan_set.write_l h (Set_lat.of_list [ pid + 1 ]);
      Scan_set.read_max h
  in
  let outcome =
    Pram.Explore.search ~way:Pram.Explore.Way.Naive ~max_crashes:1
      ~max_schedules:4_000 ~procs
      (Pram.Explore.instance program ~check:(fun d _sched ->
           let done_ =
             List.filter_map
               (fun p ->
                 match Pram.Driver.result d p with
                 | Some r -> Some (p, r)
                 | None -> None)
               (List.init procs Fun.id)
           in
           List.for_all
             (fun (p, r) ->
               Set_lat.elements r |> List.mem (p + 1)
               && List.for_all
                    (fun (_, r') ->
                      Semilattice.comparable (module Set_lat) r r')
                    done_)
             done_))
  in
  check_bool "no violation in any crash branch" true
    (outcome.Pram.Explore.failures = []);
  check_bool "explored a real sample" true
    (outcome.Pram.Explore.explored >= 1_000)

(* --- Lemma 32: comparability of concurrent scan results ---------------- *)

(* Lemma 32 and Theorem 33 are claims about the object, so they take the
   variant it runs as one more input. *)
let any_variant =
  QCheck.make
    ~print:(function
      | Snapshot.Scan.Plain -> "Plain"
      | Optimized -> "Optimized"
      | Adaptive -> "Adaptive"
      | Lattice -> "Lattice")
    (QCheck.Gen.oneofl Snapshot.Scan.[ Plain; Optimized; Adaptive; Lattice ])

let qcheck_comparability =
  QCheck.Test.make ~name:"Lemma 32: scan results pairwise comparable"
    ~count:300
    QCheck.(triple (int_bound 1_000_000) (int_bound 1) any_variant)
    (fun (seed, crashes, variant) ->
      let procs = 3 in
      let program () =
        let t = Scan_set.create ~variant ~procs in
        fun pid ->
          (* two scans per process, each contributing a distinct element *)
          let h = Scan_set.attach t (ctx ~procs pid) in
          let r1 = Scan_set.scan h (Set_lat.of_list [ (pid * 2) + 1 ]) in
          let r2 = Scan_set.scan h (Set_lat.of_list [ (pid * 2) + 2 ]) in
          [ r1; r2 ]
      in
      let d = Pram.Driver.create ~procs program in
      let crash_prob = if crashes = 1 then 0.05 else 0.0 in
      Pram.Scheduler.run
        (Pram.Scheduler.random ~crash_prob ~min_alive:1 ~seed ())
        d;
      (* finish the survivors *)
      for p = 0 to procs - 1 do
        if Pram.Driver.runnable d p then ignore (Pram.Driver.run_solo d p)
      done;
      let results =
        List.concat_map
          (fun p -> match Pram.Driver.result d p with Some l -> l | None -> [])
          [ 0; 1; 2 ]
      in
      List.for_all
        (fun a ->
          List.for_all
            (fun b -> Semilattice.comparable (module Set_lat) a b)
            results)
        results)

(* --- Theorem 33: linearizability under random schedules ---------------- *)

(* One run of the write/read workload on a [variant] object: each
   process does Write_l then Read_max, under a random schedule; returns
   the recorded history. *)
let scan_object_history ~variant ~procs ~seed ~with_crash =
  let recorder = Spec.History.Recorder.create () in
  let program () =
    let t = Scan.create ~variant ~procs in
    fun pid ->
      let h = Scan.attach t (ctx ~procs pid) in
      ignore
        (Spec.History.Recorder.record recorder ~pid (`Write_l (pid + 1))
           (fun () ->
             Scan.write_l h (pid + 1);
             `Unit));
      ignore
        (Spec.History.Recorder.record recorder ~pid `Read_max (fun () ->
             `Join (Scan.read_max h)))
  in
  let d = Pram.Driver.create ~procs program in
  let crash_prob = if with_crash then 0.05 else 0.0 in
  Pram.Scheduler.run (Pram.Scheduler.random ~crash_prob ~min_alive:1 ~seed ()) d;
  for p = 0 to procs - 1 do
    if Pram.Driver.runnable d p then ignore (Pram.Driver.run_solo d p)
  done;
  Spec.History.Recorder.events recorder

let qcheck_scan_linearizable =
  QCheck.Test.make ~name:"Theorem 33: write_l/read_max histories linearizable"
    ~count:300
    QCheck.(triple (int_bound 1_000_000) bool any_variant)
    (fun (seed, with_crash, variant) ->
      Scan_check.is_linearizable
        (scan_object_history ~variant ~procs:3 ~seed ~with_crash))

(* The combined Scan primitive — contribute v and return the join, as one
   atomic operation — is STRICTLY STRONGER than the paper's object, and
   the implementation does not provide it: a Write_L's internal value may
   contain contributions of operations that must linearize after it.
   This test documents the distinction by finding a violating schedule. *)
let test_combined_scan_not_atomic () =
  let module Combined = struct
    type state = int
    type operation = int
    type response = int

    let initial = 0

    let apply s v =
      let s' = max s v in
      (s', s')

    let commutes _ _ = false
    let overwrites _ _ = false
    let reads_only _ = false
    let equal_state = Int.equal
    let equal_response = Int.equal
    let pp_operation = Format.pp_print_int
    let pp_response = Format.pp_print_int
    let pp_state = Format.pp_print_int
  end in
  let module Check = Lincheck.Make (Combined) in
  let violation_for_seed seed =
    let procs = 3 in
    let recorder = Spec.History.Recorder.create () in
    let program () =
      let t = Scan.create ~variant:Snapshot.Scan.Optimized ~procs in
      fun pid ->
        let h = Scan.attach t (ctx ~procs pid) in
        for round = 0 to 1 do
          let v = 1 + (pid * 2) + round in
          ignore
            (Spec.History.Recorder.record recorder ~pid v (fun () ->
                 Scan.scan h v))
        done
    in
    let d = Pram.Driver.create ~procs program in
    Pram.Scheduler.run (Pram.Scheduler.random ~seed ()) d;
    not (Check.is_linearizable (Spec.History.Recorder.events recorder))
  in
  let rec exists seed =
    if seed > 2000 then false
    else violation_for_seed seed || exists (seed + 1)
  in
  Alcotest.(check bool)
    "a schedule violating atomic fetch-and-join exists" true (exists 0)

(* Lemma 29's flavor, observed at the object level: values returned by
   real-time-ordered operations are monotone in the lattice — a process's
   successive read_max results never decrease, and a read_max that begins
   after another completes returns at least as much. *)
let qcheck_scan_monotone =
  QCheck.Test.make ~name:"Lemma 29: read_max monotone per process"
    ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let procs = 3 in
      let program () =
        let t = Scan.create ~variant:Snapshot.Scan.Optimized ~procs in
        fun pid ->
          let h = Scan.attach t (ctx ~procs pid) in
          Scan.write_l h (pid + 1);
          let a = Scan.read_max h in
          let b = Scan.read_max h in
          Scan.write_l h (10 * (pid + 1));
          let c = Scan.read_max h in
          (a, b, c)
      in
      let d = Pram.Driver.create ~procs program in
      Pram.Scheduler.run (Pram.Scheduler.random ~seed ()) d;
      for p = 0 to procs - 1 do
        if Pram.Driver.runnable d p then ignore (Pram.Driver.run_solo d p)
      done;
      List.for_all
        (fun p ->
          match Pram.Driver.result d p with
          | Some (a, b, c) -> a <= b && b <= c && c >= 10 * (p + 1)
          | None -> false)
        (List.init procs Fun.id))

(* --- wait-freedom: solo completion no matter what others did ----------- *)

let qcheck_wait_free =
  QCheck.Test.make ~name:"scan is wait-free (solo completion, others crashed)"
    ~count:200
    QCheck.(pair (int_bound 1_000_000) (int_bound 200))
    (fun (seed, prefix_len) ->
      let procs = 4 in
      let program () =
        let t = Scan.create ~variant:Snapshot.Scan.Optimized ~procs in
        fun pid -> Scan.scan (Scan.attach t (ctx ~procs pid)) pid
      in
      (* random prefix, then crash everyone except process 0 *)
      let d = Pram.Driver.create ~procs program in
      let sched = Pram.Scheduler.random ~seed () in
      (try
         for _ = 1 to prefix_len do
           match sched d with
           | Pram.Scheduler.Step p -> Pram.Driver.step d p
           | _ -> ()
         done
       with _ -> ());
      for p = 1 to procs - 1 do
        Pram.Driver.crash d p
      done;
      (* the scan must finish within its deterministic step bound *)
      let reads, writes =
        Snapshot.Scan.cost_formula ~procs Snapshot.Scan.Optimized
      in
      let bound = reads + writes in
      (not (Pram.Driver.runnable d 0))
      || Pram.Driver.run_solo ~max_steps:bound d 0)

(* --- snapshot array on top of the scan --------------------------------- *)

module Arr = Snapshot.Snapshot_array.Make (Snapshot.Slot_value.Int) (Pram.Memory.Sim_v)
module Arr_spec =
  Snapshot.Array_spec.Make
    (Snapshot.Slot_value.Int)
    (struct
      let procs = 3
    end)

module Arr_check = Lincheck.Make (Arr_spec)

let snapshot_array_program ~procs recorder () =
  let t = Arr.create ~variant:Snapshot.Scan.Optimized ~procs in
  fun pid ->
    let h = Arr.attach t (ctx ~procs pid) in
    Spec.History.Recorder.record recorder ~pid (`Update (pid, pid + 10))
      (fun () ->
        Arr.update h (pid + 10);
        `Unit)
    |> ignore;
    Spec.History.Recorder.record recorder ~pid `Snapshot (fun () ->
        `View (Arr.snapshot h))
    |> ignore

let qcheck_snapshot_array_linearizable =
  QCheck.Test.make ~name:"snapshot array linearizable" ~count:200
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let procs = 3 in
      let recorder = Spec.History.Recorder.create () in
      let d =
        Pram.Driver.create ~procs (snapshot_array_program ~procs recorder)
      in
      Pram.Scheduler.run (Pram.Scheduler.random ~seed ()) d;
      Arr_check.is_linearizable (Spec.History.Recorder.events recorder))

let test_snapshot_array_sequential () =
  let t = Arr_d.create ~variant:Snapshot.Scan.Optimized ~procs:3 in
  let h = Array.init 3 (fun pid -> Arr_d.attach t (ctx ~procs:3 pid)) in
  Arr_d.update h.(0) 100;
  Arr_d.update h.(2) 300;
  let view = Arr_d.snapshot h.(1) in
  check_bool "view" true (view = [| 100; 0; 300 |]);
  Arr_d.update h.(0) 111;
  let view = Arr_d.snapshot h.(2) in
  check_bool "updated view" true (view = [| 111; 0; 300 |])

(* --- the naive collect is NOT atomic ------------------------------------ *)

module Naive = Snapshot.Collect.Make (Snapshot.Slot_value.Int) (Pram.Memory.Sim)

let test_naive_collect_violation () =
  (* Two writers p0 (slot 0) and p1 (slot 1); reader p2 collects.
     Schedule: p2 reads slot0 (=0); p0 writes slot0=1; p1 (after seeing
     p0's write via its own read) writes slot1=1; p2 reads slot1 (=1).
     p2's view [0; 1] is inconsistent with the write order: slot1 was
     written strictly after slot0, so any atomic view showing slot1=1 must
     show slot0=1.  The checker sees the writes' real-time order and the
     reader's view and must reject. *)
  let recorder = Spec.History.Recorder.create () in
  let program () =
    let t = Naive.create ~procs:3 in
    fun pid ->
      let h = Naive.attach t (ctx ~procs:3 pid) in
      match pid with
      | 0 ->
          ignore
            (Spec.History.Recorder.record recorder ~pid (`Update (0, 1))
               (fun () ->
                 Naive.update h 1;
                 `Unit))
      | 1 ->
          ignore
            (Spec.History.Recorder.record recorder ~pid (`Update (1, 1))
               (fun () ->
                 Naive.update h 1;
                 `Unit))
      | _ ->
          ignore
            (Spec.History.Recorder.record recorder ~pid `Snapshot (fun () ->
                 `View (Naive.snapshot h)))
  in
  let d = Pram.Driver.create ~procs:3 program in
  (* p2's snapshot reads slots in order 0,1. *)
  Pram.Driver.step d 2 (* p2 reads slot0 = 0 *);
  Pram.Driver.step d 0 (* p0 writes slot0 = 1 *);
  Pram.Driver.step d 1 (* p1 writes slot1 = 1 (after p0 in real time) *);
  Pram.Driver.step d 2 (* p2 reads slot1 = 1 *);
  Pram.Scheduler.run (Pram.Scheduler.round_robin ()) d;
  check_bool "naive collect rejected" false
    (Arr_check.is_linearizable (Spec.History.Recorder.events recorder))

(* --- double collect: linearizable but starvable ------------------------- *)

module DC = Snapshot.Double_collect.Make (Snapshot.Slot_value.Int) (Pram.Memory.Sim)

let test_double_collect_correct_when_quiet () =
  let t = DC_d.create ~procs:2 in
  DC_d.update (DC_d.attach t (ctx ~procs:2 0)) 5;
  let v = DC_d.snapshot_exn (DC_d.attach t (ctx ~procs:2 1)) in
  check_bool "view" true (v = [| 5; 0 |])

let test_double_collect_starves () =
  (* Adversary: let the reader finish one collect, then always schedule a
     writer write between the reader's collects.  The reader never sees
     two equal collects. *)
  let program () =
    let t = DC.create ~procs:2 in
    fun pid ->
      let h = DC.attach t (ctx ~procs:2 pid) in
      if pid = 0 then begin
        (* endless writer *)
        for i = 1 to 1_000 do
          DC.update h i
        done;
        None
      end
      else DC.snapshot ~max_rounds:50 h
  in
  let d = Pram.Driver.create ~procs:2 program in
  (* interleave: 1 writer write (2 slots... update = 1 write), then the
     reader's full collect (2 reads), repeatedly *)
  let rec loop k =
    if k = 0 then ()
    else if Pram.Driver.runnable d 1 then begin
      if Pram.Driver.runnable d 0 then Pram.Driver.step d 0;
      if Pram.Driver.runnable d 1 then begin
        Pram.Driver.step d 1;
        if Pram.Driver.runnable d 1 then Pram.Driver.step d 1
      end;
      loop (k - 1)
    end
  in
  loop 400;
  (* reader exhausted its rounds without success *)
  if Pram.Driver.runnable d 1 then ignore (Pram.Driver.run_solo d 1);
  match Pram.Driver.result d 1 with
  | Some None -> () (* starved, as expected *)
  | Some (Some _) -> Alcotest.fail "double collect unexpectedly succeeded"
  | None -> Alcotest.fail "reader did not finish"

(* --- Afek et al.: wait-free via helping --------------------------------- *)

module AF = Snapshot.Afek.Make (Snapshot.Slot_value.Int) (Pram.Memory.Sim)
module AB = Snapshot.Afek_bounded.Make (Snapshot.Slot_value.Int) (Pram.Memory.Sim)
module AB_d = Snapshot.Afek_bounded.Make (Snapshot.Slot_value.Int) (Pram.Memory.Direct)

let test_afek_sequential () =
  let t = AF_d.create ~procs:3 in
  AF_d.update (AF_d.attach t (ctx ~procs:3 0)) 7;
  AF_d.update (AF_d.attach t (ctx ~procs:3 1)) 8;
  let v = AF_d.snapshot (AF_d.attach t (ctx ~procs:3 2)) in
  check_bool "view" true (v = [| 7; 8; 0 |])

let qcheck_afek_linearizable =
  QCheck.Test.make ~name:"afek snapshot linearizable" ~count:150
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let procs = 3 in
      let recorder = Spec.History.Recorder.create () in
      let program () =
        let t = AF.create ~procs in
        fun pid ->
          let h = AF.attach t (ctx ~procs pid) in
          ignore
            (Spec.History.Recorder.record recorder ~pid (`Update (pid, pid + 10))
               (fun () ->
                 AF.update h (pid + 10);
                 `Unit));
          ignore
            (Spec.History.Recorder.record recorder ~pid `Snapshot (fun () ->
                 `View (AF.snapshot h)))
      in
      let d = Pram.Driver.create ~procs program in
      Pram.Scheduler.run (Pram.Scheduler.random ~seed ()) d;
      Arr_check.is_linearizable (Spec.History.Recorder.events recorder))

let test_afek_bounded_sequential () =
  let t = AB_d.create ~procs:3 in
  let h = Array.init 3 (fun pid -> AB_d.attach t (ctx ~procs:3 pid)) in
  AB_d.update h.(0) 7;
  AB_d.update h.(1) 8;
  check_bool "view" true (AB_d.snapshot h.(2) = [| 7; 8; 0 |]);
  AB_d.update h.(0) 9;
  check_bool "second view" true (AB_d.snapshot h.(1) = [| 9; 8; 0 |])

let qcheck_afek_bounded_linearizable =
  QCheck.Test.make ~name:"bounded afek snapshot linearizable" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let procs = 3 in
      let recorder = Spec.History.Recorder.create () in
      let program () =
        let t = AB.create ~procs in
        fun pid ->
          let h = AB.attach t (ctx ~procs pid) in
          ignore
            (Spec.History.Recorder.record recorder ~pid (`Update (pid, pid + 10))
               (fun () ->
                 AB.update h (pid + 10);
                 `Unit));
          ignore
            (Spec.History.Recorder.record recorder ~pid `Snapshot (fun () ->
                 `View (AB.snapshot h)))
      in
      let d = Pram.Driver.create ~procs program in
      Pram.Scheduler.run ~max_steps:5_000_000 (Pram.Scheduler.random ~seed ()) d;
      Arr_check.is_linearizable (Spec.History.Recorder.events recorder))

let qcheck_afek_bounded_wait_free =
  QCheck.Test.make ~name:"bounded afek scan bounded under contention"
    ~count:100
    QCheck.(pair (int_bound 1_000_000) (int_bound 300))
    (fun (seed, prefix_len) ->
      let procs = 3 in
      let program () =
        let t = AB.create ~procs in
        fun pid ->
          let h = AB.attach t (ctx ~procs pid) in
          if pid = 0 then ignore (AB.snapshot h)
          else
            for i = 1 to 30 do
              AB.update h i
            done
      in
      let d = Pram.Driver.create ~procs program in
      let sched = Pram.Scheduler.random ~seed () in
      for _ = 1 to prefix_len do
        match sched d with
        | Pram.Scheduler.Step p -> Pram.Driver.step d p
        | _ -> ()
      done;
      (not (Pram.Driver.runnable d 0)) || Pram.Driver.run_solo ~max_steps:500 d 0)

let qcheck_afek_wait_free_bound =
  QCheck.Test.make ~name:"afek scan bounded despite concurrency" ~count:100
    QCheck.(pair (int_bound 1_000_000) (int_bound 300))
    (fun (seed, prefix_len) ->
      let procs = 3 in
      let program () =
        let t = AF.create ~procs in
        fun pid ->
          let h = AF.attach t (ctx ~procs pid) in
          if pid = 0 then begin
            ignore (AF.snapshot h);
            [||]
          end
          else begin
            for i = 1 to 50 do
              AF.update h i
            done;
            [||]
          end
      in
      let d = Pram.Driver.create ~procs program in
      let sched = Pram.Scheduler.random ~seed () in
      (try
         for _ = 1 to prefix_len do
           match sched d with
           | Pram.Scheduler.Step p -> Pram.Driver.step d p
           | _ -> ()
         done
       with _ -> ());
      (* reader must finish within O(n^2 * updates-in-flight) steps solo *)
      (not (Pram.Driver.runnable d 0)) || Pram.Driver.run_solo ~max_steps:200 d 0)

let () =
  Alcotest.run "snapshot"
    [
      ( "scan",
        [
          Alcotest.test_case "sequential joins" `Quick test_scan_sequential;
          Alcotest.test_case "variants agree" `Quick test_scan_plain_equals_optimized;
          Alcotest.test_case "cost: plain formula" `Quick test_cost_plain;
          Alcotest.test_case "cost: optimized formula" `Quick test_cost_optimized;
          Alcotest.test_case "cost: adaptive formula" `Quick test_cost_adaptive;
          Alcotest.test_case "cost: lattice formula" `Quick test_cost_lattice;
          Alcotest.test_case "lattice multi-shot reuse past the pool" `Quick
            test_lattice_multishot_reuse;
          Alcotest.test_case "bounded retry reduces escalations" `Quick
            test_adaptive_retry_reduces_escalations;
          Alcotest.test_case "DPOR differential, procs 2 (all variants)" `Quick
            test_dpor_differential_p2;
          Alcotest.test_case "DPOR differential, procs 3" `Quick
            test_dpor_differential_p3;
          Alcotest.test_case "lattice crash mid-descend" `Quick
            test_lattice_crash_mid_descend;
          QCheck_alcotest.to_alcotest qcheck_comparability;
          QCheck_alcotest.to_alcotest qcheck_scan_linearizable;
          Alcotest.test_case "combined fetch-and-join is not atomic" `Quick
            test_combined_scan_not_atomic;
          QCheck_alcotest.to_alcotest qcheck_scan_monotone;
          QCheck_alcotest.to_alcotest qcheck_wait_free;
          Alcotest.test_case
            "lattice: a tree recycled under a live descent is fenced" `Quick
            test_lattice_recycled_tree_fenced;
        ] );
      ( "snapshot array",
        [
          Alcotest.test_case "sequential" `Quick test_snapshot_array_sequential;
          QCheck_alcotest.to_alcotest qcheck_snapshot_array_linearizable;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "naive collect violates atomicity" `Quick
            test_naive_collect_violation;
          Alcotest.test_case "double collect correct when quiet" `Quick
            test_double_collect_correct_when_quiet;
          Alcotest.test_case "double collect starves" `Quick
            test_double_collect_starves;
          Alcotest.test_case "afek sequential" `Quick test_afek_sequential;
          QCheck_alcotest.to_alcotest qcheck_afek_linearizable;
          QCheck_alcotest.to_alcotest qcheck_afek_wait_free_bound;
          Alcotest.test_case "bounded afek sequential" `Quick
            test_afek_bounded_sequential;
          QCheck_alcotest.to_alcotest qcheck_afek_bounded_linearizable;
          QCheck_alcotest.to_alcotest qcheck_afek_bounded_wait_free;
        ] );
    ]
