(* Ways tests: bounded + randomized schedule exploration.

   The properties pinned here are the ones the search layer's soundness
   story rests on:

   - generator validity: every sampled schedule is a legal maximal
     interleaving (checked by strict replay: each action's process must
     be runnable when the action fires, and the driver must be
     quiescent at the end), and sampling is a deterministic function of
     (way, index) regardless of sharding;
   - provenance: a counterexample records its way and sample tag, the
     tag re-derives the failing schedule exactly, and printed schedules
     (including crash actions) parse back unchanged;
   - trace completeness: unbounded systematic search visits exactly one
     schedule per Mazurkiewicz trace of the naive enumeration, at any
     job count;
   - differential completeness: on the injected-bug corpus the default
     pre-emption bound finds exactly what unbounded DPOR finds at
     procs 2-3, random ways find the same bugs at procs 5-8 within a
     fixed budget, and a weighted near-serial way catches both a
     real-time-order violation that DPOR and same-budget uniform
     sampling miss, and a torn seqlock read in a broken VERSIONED
     backend that bounded systematic and same-budget uniform sampling
     miss;
   - parallel determinism: jobs=1 and jobs=4 produce byte-identical
     outcomes, counterexamples included;
   - exact counts: the census fixtures' explored, pruned and pending
     counts under each way, budget and bound are pinned, so a change to
     the walker's rules shows up as a changed number. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

module M = Pram.Memory.Sim
module E = Pram.Explore

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false else String.sub hay i nn = needle || go (i + 1)
  in
  go 0

(* --- fixtures: the injected-bug corpus ------------------------------------ *)

(* Every process increments a shared counter non-atomically; any
   pre-emption between a read and its write loses an update. *)
let lost_update_body r _pid =
  let v = M.read r in
  M.write r (v + 1)

let lost_update_setup () = lost_update_body (M.create 0)

(* A program over one shared register, initially 0, whose runs pass iff
   the register ends at [procs]. *)
let ends_at ~procs body () =
  let r = M.create 0 in
  {
    E.body = body r;
    check = (fun _d _sched -> Pram.Register.get r = procs);
    pp_history = None;
  }

let lost_update ~procs = ends_at ~procs lost_update_body

(* Racy maximum: a process holding a stale read can overwrite a larger
   proposal, so the final value can undershoot the true maximum. *)
let racy_max ~procs =
  ends_at ~procs (fun r pid ->
      let v = M.read r in
      if v < pid + 1 then M.write r (pid + 1))

(* Disjoint registers: nothing to race on, every check passes. *)
let disjoint ~procs =
  E.instance ~check:(fun _ _ -> true) (fun () ->
      let regs = Array.init procs (fun _ -> M.create 0) in
      fun pid ->
        M.write regs.(pid) (pid + 1);
        ignore (M.read regs.(pid)))

(* --- bounds / way descriptions -------------------------------------------- *)

let test_bounds_and_way_strings () =
  check_bool "none is_none" true (E.Bounds.is_none E.Bounds.none);
  check_bool "default is bounded" false (E.Bounds.is_none E.Bounds.default);
  check_string "none renders" "unbounded" (E.Bounds.to_string E.Bounds.none);
  check_string "default renders" "preempt<=3"
    (E.Bounds.to_string E.Bounds.default);
  check_string "made bound renders" "preempt<=2"
    (E.Bounds.to_string (E.Bounds.make ~preempt:2 ()));
  check_string "naive renders" "naive" (E.Way.to_string E.Way.Naive);
  check_string "systematic renders" "systematic(unbounded)"
    (E.Way.to_string E.Way.systematic);
  check_string "uniform renders" "uniform(seed=7,count=10)"
    (E.Way.to_string (E.Way.Uniform { seed = 7; count = 10 }));
  check_string "weighted renders" "weighted(seed=7,count=10,bias=16)"
    (E.Way.to_string (E.Way.Weighted { seed = 7; count = 10; bias = 16.0 }))

let test_legacy_outcomes_carry_coverage () =
  let o =
    E.search ~way:E.Way.Naive ~jobs:4 ~procs:2
      (E.instance ~check:(fun _ _ -> true) lost_update_setup)
  in
  check_bool "naive way recorded" true (o.E.way = E.Way.Naive);
  check_int "naive coverage mirrors explored" o.E.explored
    o.E.coverage.E.cov_explored;
  check_int "naive never samples" 0 o.E.coverage.E.cov_sampled;
  check_int "naive is one task at any job count" 1 o.E.coverage.E.cov_tasks

(* --- generator validity (qcheck) ------------------------------------------ *)

(* Replay an encoded schedule STRICTLY: unlike [Explore.apply_encoded]
   (which drops actions tolerantly), every action's process must be
   runnable at the moment it fires, and the run must end quiescent —
   the definition of a legal maximal interleaving. *)
let strict_replay ~procs setup sched =
  let d = Pram.Driver.create ~procs setup in
  List.for_all
    (fun a ->
      if a >= 0 then
        a < procs
        && Pram.Driver.runnable d a
        &&
        (Pram.Driver.step d a;
         true)
      else
        let p = -1 - a in
        p >= 0 && p < procs
        && Pram.Driver.runnable d p
        &&
        (Pram.Driver.crash d p;
         true))
    sched
  && Pram.Driver.all_quiescent d

let qcheck_samples_legal =
  QCheck.Test.make
    ~name:"sampled schedules are legal maximal interleavings (procs 1..8)"
    ~count:120
    QCheck.(
      quad (int_range 1 8) (int_bound 100_000) (int_bound 400)
        (option (int_range 1 32)))
    (fun (procs, seed, index, bias) ->
      let way =
        match bias with
        | None -> E.Way.Uniform { seed; count = index + 1 }
        | Some b ->
            E.Way.Weighted { seed; count = index + 1; bias = float_of_int b }
      in
      let sched, d = E.sample_schedule ~way ~index ~procs lost_update_setup in
      Pram.Driver.all_quiescent d
      (* crash-free: read + write per process, nothing dropped *)
      && List.length sched = 2 * procs
      && List.for_all (fun a -> a >= 0 && a < procs) sched
      && strict_replay ~procs lost_update_setup sched
      (* deterministic in (way, index): resampling reproduces it *)
      && fst (E.sample_schedule ~way ~index ~procs lost_update_setup) = sched)

let qcheck_crash_samples_legal =
  QCheck.Test.make
    ~name:"crash-injected samples stay legal and within the crash budget"
    ~count:80
    QCheck.(triple (int_range 2 6) (int_bound 100_000) (int_range 1 2))
    (fun (procs, seed, max_crashes) ->
      let way = E.Way.Uniform { seed; count = 1 } in
      let sched, d =
        E.sample_schedule ~max_crashes ~way ~index:0 ~procs lost_update_setup
      in
      let crashes = List.length (List.filter (fun a -> a < 0) sched) in
      Pram.Driver.all_quiescent d
      && crashes <= max_crashes
      && strict_replay ~procs lost_update_setup sched)

let qcheck_schedule_roundtrip =
  QCheck.Test.make
    ~name:"printed schedules (incl. crashes) parse back unchanged" ~count:100
    QCheck.(triple (int_range 1 8) (int_bound 100_000) (int_range 0 2))
    (fun (procs, seed, max_crashes) ->
      let way = E.Way.Uniform { seed; count = 1 } in
      let sched, _ =
        E.sample_schedule ~max_crashes ~way ~index:0 ~procs lost_update_setup
      in
      let printed = Format.asprintf "%a" Pram.Trace.pp_encoded_schedule sched in
      match Pram.Trace.parse_encoded_schedule printed with
      | Ok parsed -> parsed = sched
      | Error _ -> false)

(* --- counterexample provenance -------------------------------------------- *)

(* Extract the integer following [tag] in [s] (e.g. "sample=" in
   "uniform(seed=42,count=200) sample=17"). *)
let int_after s tag =
  let n = String.length s and tn = String.length tag in
  let rec find i =
    if i + tn > n then None
    else if String.sub s i tn = tag then Some (i + tn)
    else find (i + 1)
  in
  Option.bind (find 0) (fun j ->
      let k = ref j in
      while !k < n && s.[!k] >= '0' && s.[!k] <= '9' do
        incr k
      done;
      int_of_string_opt (String.sub s j (!k - j)))

let test_cex_provenance_rederives_schedule () =
  let procs = 4 in
  let way = E.Way.Uniform { seed = 42; count = 200 } in
  let report =
    E.search_check ~way ~jobs:2 ~procs (lost_update ~procs)
  in
  check_bool "bug found" false (E.report_ok report);
  match report.E.r_counterexample with
  | None -> Alcotest.fail "expected a counterexample"
  | Some cex -> (
      check_bool "way recorded in provenance" true
        (contains cex.E.cex_way "uniform(seed=42,count=200)");
      check_bool "sample tag recorded" true (contains cex.E.cex_way "sample=");
      check_bool "message names the way" true
        (contains cex.E.cex_message "way:");
      (* the recorded sample index re-derives the failing schedule *)
      match int_after cex.E.cex_way "sample=" with
      | None -> Alcotest.fail "unparsable sample tag"
      | Some index ->
          let sched, _ =
            E.sample_schedule ~way ~index ~procs lost_update_setup
          in
          check_bool "sample index re-derives the failing schedule" true
            (sched = cex.E.cex_schedule);
          (* and the shrunk schedule survives a print/parse round trip *)
          let printed =
            Format.asprintf "%a" Pram.Trace.pp_encoded_schedule cex.E.cex_shrunk
          in
          (match Pram.Trace.parse_encoded_schedule printed with
          | Ok parsed ->
              check_bool "shrunk schedule round-trips" true
                (parsed = cex.E.cex_shrunk)
          | Error e -> Alcotest.fail ("round trip failed: " ^ e)))

(* --- differential completeness -------------------------------------------- *)

let test_bounded_matches_exhaustive_small () =
  List.iter
    (fun (name, procs, mk) ->
      let ex = E.search ~way:E.Way.systematic ~procs mk in
      let bd = E.search ~way:(E.Way.Systematic E.Bounds.default) ~procs mk in
      check_bool (name ^ ": bounded verdict matches exhaustive")
        (ex.E.failures <> [])
        (bd.E.failures <> []);
      check_bool (name ^ ": bounded explores no more schedules") true
        (bd.E.coverage.E.cov_explored <= ex.E.coverage.E.cov_explored))
    [
      ("lost_update/2", 2, lost_update ~procs:2);
      ("lost_update/3", 3, lost_update ~procs:3);
      ("racy_max/3", 3, racy_max ~procs:3);
      ("disjoint/3", 3, disjoint ~procs:3);
    ]

let test_random_ways_find_corpus_bugs_at_scale () =
  (* procs 5-8 are far beyond exhaustive reach ((2p)!/(2!)^p schedules);
     a modest seeded sample budget still lands on the bugs *)
  List.iter
    (fun procs ->
      let way = E.Way.Uniform { seed = 11; count = 300 } in
      let o = E.search ~way ~jobs:2 ~procs (lost_update ~procs) in
      check_bool
        (Printf.sprintf "lost update found at procs=%d" procs)
        true (o.E.failures <> []);
      check_int
        (Printf.sprintf "all samples drawn at procs=%d" procs)
        300 o.E.coverage.E.cov_sampled)
    [ 5; 6; 7; 8 ];
  let o =
    E.search
      ~way:(E.Way.Uniform { seed = 11; count = 400 })
      ~jobs:2 ~procs:6 (racy_max ~procs:6)
  in
  check_bool "racy max found at procs=6" true (o.E.failures <> [])

let test_preempt_bound_is_bug_finding_only () =
  (* with preempt<=0 only non-preemptive (serial) schedules survive;
     serial increments never lose an update, so the bounded search
     reports clean — and must account for what it cut *)
  let way = E.Way.Systematic (E.Bounds.make ~preempt:0 ()) in
  let o = E.search ~way ~procs:3 (lost_update ~procs:3) in
  check_bool "no violation within the bound" true (o.E.failures = []);
  check_bool "pruning recorded" true (o.E.coverage.E.cov_pruned > 0);
  check_bool "way recorded" true (o.E.way = way)

(* --- weighted ways vs the POR caveat -------------------------------------- *)

(* The buggy scan from the exhaustive tests: each pass drops the collect
   of the last process's column, so a reader can miss a write that
   completed strictly before its scan began — a violation living purely
   in the real-time order of INDEPENDENT accesses.  DPOR commutes those
   accesses away (the documented caveat), and uniform sampling almost
   never serializes 8 consecutive steps; weighted near-serial sampling
   finds it reliably. *)
module L = Semilattice.Nat_max

module Buggy_scan = struct
  type t = {
    procs : int;
    grid : L.t M.reg array array;
    mirror : L.t array array;
  }

  let create ~procs =
    {
      procs;
      grid =
        Array.init procs (fun p ->
            Array.init (procs + 2) (fun i ->
                M.create ~name:(Printf.sprintf "scan[%d][%d]" p i) L.bottom));
      mirror = Array.init procs (fun _ -> Array.make (procs + 2) L.bottom);
    }

  let scan t ~pid v =
    let n = t.procs in
    let row = t.grid.(pid) in
    let mir = t.mirror.(pid) in
    let v0 = L.join v (M.read row.(0)) in
    M.write row.(0) v0;
    mir.(0) <- v0;
    for i = 1 to n + 1 do
      let acc = ref mir.(i) in
      (* BUG: [to n - 2] drops the collect of the last process's column *)
      for q = 0 to n - 2 do
        acc := L.join !acc (M.read t.grid.(q).(i - 1))
      done;
      M.write row.(i) !acc;
      mir.(i) <- !acc
    done;
    mir.(n + 1)

  let write_l t ~pid v = ignore (scan t ~pid v)
  let read_max t ~pid = scan t ~pid L.bottom
end

module Scan_spec = Snapshot.Scan_spec.Make (L)
module Scan_check = Lincheck.Make (Scan_spec)

let buggy_scan_program record =
  let t = Buggy_scan.create ~procs:2 in
  fun pid ->
    if pid = 0 then
      ignore
        (record ~pid `Read_max (fun () -> `Join (Buggy_scan.read_max t ~pid)))
    else
      ignore
        (record ~pid (`Write_l 2) (fun () ->
             Buggy_scan.write_l t ~pid 2;
             `Unit))

let test_weighted_catches_realtime_bug () =
  let sys =
    Scan_check.search_check ~way:E.Way.systematic ~procs:2 buggy_scan_program
  in
  check_bool "DPOR misses the real-time-order violation" true
    (E.report_ok sys);
  let budget = 64 and seed = 3 in
  let uni =
    Scan_check.search_check
      ~way:(E.Way.Uniform { seed; count = budget })
      ~shrink:false ~procs:2 buggy_scan_program
  in
  check_bool "uniform sampling misses it at the same budget" true
    (E.report_ok uni);
  let wei =
    Scan_check.search_check
      ~way:(E.Way.Weighted { seed; count = budget; bias = 16.0 })
      ~procs:2 buggy_scan_program
  in
  check_bool "weighted near-serial sampling finds it" false (E.report_ok wei);
  match wei.E.r_counterexample with
  | None -> Alcotest.fail "expected a counterexample"
  | Some cex ->
      check_bool "provenance names the weighted way" true
        (contains cex.E.cex_way "weighted(");
      check_bool "history rendered in the message" true
        (String.length cex.E.cex_message > 40)

(* --- weighted ways vs the adaptive scan's torn-read hazard ---------------- *)

(* A deliberately broken VERSIONED backend: value and epoch live in
   SEPARATE registers, so [read_versioned] is two scheduled accesses
   instead of the one consistent observation the signature promises.  A
   write landing in the window leaves the OLD value paired with the NEW
   epoch, so the adaptive fast path's epoch revalidation passes over a
   collect that missed the write — the torn-read failure the seqlock
   slot record exists to prevent (DESIGN.md section 14). *)
module Torn_versioned = struct
  module B = Pram.Memory.Sim

  type 'a reg = { v : 'a B.reg; e : int B.reg; mutable next : int }
  type 'a versioned = 'a * int

  let create ?name init =
    let name = Option.value name ~default:"torn" in
    {
      v = B.create ~name:(name ^ ".v") init;
      e = B.create ~name:(name ^ ".e") 0;
      next = 0;
    }

  let read r = B.read r.v

  let write r x =
    r.next <- r.next + 1;
    B.write r.v x;
    B.write r.e r.next

  (* BUG: two steps, torn window in between *)
  let read_versioned r =
    let x = B.read r.v in
    (x, B.read r.e)

  let value = fst
  let version = snd
  let epoch r = B.read r.e
end

module Set_lat = Semilattice.Set_union (struct
  type t = int

  let compare = Int.compare
  let pp = Format.pp_print_int
end)

module Set_scan_spec = Snapshot.Scan_spec.Make (Set_lat)
module Set_scan_check = Lincheck.Make (Set_scan_spec)

(* Two writers contributing distinct elements, two adaptive readers:
   when each reader's torn window swallows a different writer's publish,
   the readers return INCOMPARABLE sets ({1} vs {2}) — non-linearizable
   (and a Lemma 32 violation). *)
module Adaptive_set_workload (M : Pram.Memory.VERSIONED) = struct
  module Scan = Snapshot.Scan.Make (Set_lat) (M)

  let program record =
    let t = Scan.create ~variant:Snapshot.Scan.Adaptive ~procs:4 in
    fun pid ->
      let h = Scan.attach t (Runtime.Ctx.make ~procs:4 ~pid ()) in
      if pid < 2 then
        ignore
          (record ~pid (`Write_l (Set_lat.of_list [ pid + 1 ])) (fun () ->
               Scan.write_l h (Set_lat.of_list [ pid + 1 ]);
               `Unit))
      else ignore (record ~pid `Read_max (fun () -> `Join (Scan.read_max h)))
end

module Torn_workload = Adaptive_set_workload (Torn_versioned)
module Honest_workload = Adaptive_set_workload (Pram.Memory.Sim_v)

let test_weighted_catches_torn_seqlock_read () =
  (* One pre-emption is enough for the violation: the maximal schedule
     below switches away from a still-runnable process once (2 to 0),
     and fails.  Yet systematic search bounded to ONE pre-emption
     reports clean (and must account for the pruning), because bounded
     DPOR does not visit every trace inside its bound and skips this
     one; the two assertions side by side state that gap.  Uniform
     sampling at a 64-schedule budget scatters its many pre-emptions and
     misses; weighted near-serial sampling — few, deliberately placed
     switches — lands on it within the same budget. *)
  let seed = 3 and budget = 64 in
  let torn =
    [ 2; 2; 2; 2; 0; 0; 1; 1 ]
    @ List.init 11 (fun _ -> 2)
    @ List.init 15 (fun _ -> 3)
  in
  let run = Set_scan_check.instance Torn_workload.program () in
  let d = Pram.Driver.replay ~procs:4 (fun () -> run.E.body) torn in
  check_bool "a one-preemption schedule is not linearizable" false
    (run.E.check d torn);
  let bounded =
    Set_scan_check.search_check
      ~way:(E.Way.Systematic (E.Bounds.make ~preempt:1 ()))
      ~procs:4 Torn_workload.program
  in
  check_bool "one-preemption systematic search is clean" true
    (E.report_ok bounded);
  check_bool "and records what it pruned" true
    (bounded.E.r_outcome.E.coverage.E.cov_pruned > 0);
  let uni =
    Set_scan_check.search_check
      ~way:(E.Way.Uniform { seed; count = budget })
      ~shrink:false ~procs:4 Torn_workload.program
  in
  check_bool "uniform sampling misses it at the same budget" true
    (E.report_ok uni);
  let catching_way = E.Way.Weighted { seed; count = budget; bias = 16.0 } in
  let wei =
    Set_scan_check.search_check ~way:catching_way ~procs:4 Torn_workload.program
  in
  check_bool "weighted near-serial sampling finds the torn read" false
    (E.report_ok wei);
  (match wei.E.r_counterexample with
  | None -> Alcotest.fail "expected a counterexample"
  | Some cex ->
      check_bool "provenance names the weighted way" true
        (contains cex.E.cex_way "weighted("));
  (* control: the honest one-access backend under the catching way is
     clean — the sampler is catching the injected tear, not the adaptive
     algorithm *)
  let honest =
    Set_scan_check.search_check ~way:catching_way ~procs:4
      Honest_workload.program
  in
  check_bool "honest seqlock backend is clean under the catching way" true
    (E.report_ok honest)

(* --- trace-class census --------------------------------------------------- *)

(* Straight-line programs over two registers: process p runs the
   accesses [prog.(p)] in order. *)
type access = R of int | W of int

let straight_line prog () =
  let regs = Array.init 2 (fun _ -> M.create 0) in
  fun pid ->
    List.iter
      (function
        | R r -> ignore (M.read regs.(r)) | W r -> M.write regs.(r) (pid + 1))
      prog.(pid)

(* The Mazurkiewicz class of a complete schedule, as its lexicographically
   least linearization: a topological order of program order plus the
   executed order of every same-register pair with at least one write,
   always placing the least ready pid next. *)
let trace_class prog sched =
  let next = Array.make (Array.length prog) 0 in
  let events =
    Array.of_list
      (List.map
         (fun p ->
           next.(p) <- next.(p) + 1;
           (p, List.nth prog.(p) (next.(p) - 1)))
         sched)
  in
  let n = Array.length events in
  let dependent (p, a) (q, b) =
    p = q
    ||
    match (a, b) with
    | R _, R _ -> false
    | (R r | W r), (R r' | W r') -> r = r'
  in
  let placed = Array.make n false in
  let ready j =
    (not placed.(j))
    && List.for_all
         (fun i -> placed.(i) || not (dependent events.(i) events.(j)))
         (List.init j Fun.id)
  in
  let order = ref [] in
  for _ = 1 to n do
    let best = ref (-1) in
    for j = 0 to n - 1 do
      if ready j && (!best < 0 || fst events.(j) < fst events.(!best)) then
        best := j
    done;
    placed.(!best) <- true;
    order := fst events.(!best) :: !order
  done;
  List.rev !order

(* Every complete schedule a way visits: a check that always fails
   lists them all, in the search's deterministic order. *)
let visited ~way ?jobs prog =
  (E.search ~way ?jobs ~procs:(Array.length prog)
     (E.instance ~check:(fun _ _ -> false) (straight_line prog)))
    .E.failures

(* The classes of the naive enumeration, and whether unbounded
   systematic search at jobs 1 and at jobs 4 visits each exactly once. *)
let census prog =
  let classes way jobs =
    List.map (trace_class prog) (visited ~way ~jobs prog)
  in
  let naive = List.sort_uniq compare (classes E.Way.Naive 1) in
  let once jobs = List.sort compare (classes E.Way.systematic jobs) = naive in
  (List.length naive, once 1 && once 4)

let test_trace_class_census () =
  (* Without the asleep-race rule in DPOR's race detection, a search
     rooted at the empty prefix misses 2 of fixture A's 11 classes (one
     is the final state where p0 and p1 each read the other's write
     while p2 read neither), and the partitioned search misses 6 of
     fixture B's 57 classes and classes of 5 of the 60 random
     programs. *)
  let fixture_a = [| [ W 0; R 1 ]; [ W 1; R 0 ]; [ R 0; R 1 ] |] in
  check_int "fixture A: naive schedules" 90
    (List.length (visited ~way:E.Way.Naive fixture_a));
  check_bool "fixture A: 11 classes, each visited once" true
    (census fixture_a = (11, true));
  let fixture_b =
    [| [ W 0; R 1; W 1 ]; [ W 0; R 0; R 1 ]; [ R 1; W 0; R 1 ] |]
  in
  check_bool "fixture B: 57 classes, each visited once" true
    (census fixture_b = (57, true));
  for seed = 1 to 60 do
    let rng = Random.State.make [| seed |] in
    let access _ =
      let r = Random.State.int rng 2 in
      if Random.State.bool rng then W r else R r
    in
    let prog = Array.init 3 (fun _ -> List.init 3 access) in
    check_bool
      (Printf.sprintf "random program %d: every class visited once" seed)
      true
      (snd (census prog))
  done

(* --- exact walker counts -------------------------------------------------- *)

(* The census fixtures' exact (explored, pruned, pending, truncated,
   tasks) under each way, budget and bound.  A change to the walker's
   dependency, sleep or bound rules shows up here as a changed count. *)
let test_exact_counts () =
  let sys ?preempt () = E.Way.Systematic (E.Bounds.make ?preempt ()) in
  let counts ~way ?jobs ?max_schedules ?max_crashes prog =
    let o =
      E.search ~way ?jobs ?max_schedules ?max_crashes
        ~procs:(Array.length prog)
        (E.instance ~check:(fun _ _ -> true) (straight_line prog))
    in
    ( o.E.explored,
      o.E.coverage.E.cov_pruned,
      o.E.pending,
      o.E.truncated,
      o.E.coverage.E.cov_tasks )
  in
  let cases prog =
    [
      ("naive", counts ~way:E.Way.Naive prog);
      ("naive, 7 schedules", counts ~way:E.Way.Naive ~max_schedules:7 prog);
      ("naive, 1 crash", counts ~way:E.Way.Naive ~max_crashes:1 prog);
      ("unbounded", counts ~way:(sys ()) prog);
      ( "unbounded, 2 per task, jobs 1",
        counts ~way:(sys ()) ~max_schedules:2 ~jobs:1 prog );
      ( "unbounded, 2 per task, jobs 3",
        counts ~way:(sys ()) ~max_schedules:2 ~jobs:3 prog );
      ("preempt 0", counts ~way:(sys ~preempt:0 ()) prog);
      ("preempt 1", counts ~way:(sys ~preempt:1 ()) prog);
      ("preempt 3", counts ~way:(sys ~preempt:3 ()) prog);
      ( "preempt 3, 2 per task, jobs 1",
        counts ~way:(sys ~preempt:3 ()) ~max_schedules:2 ~jobs:1 prog );
      ( "preempt 3, 2 per task, jobs 3",
        counts ~way:(sys ~preempt:3 ()) ~max_schedules:2 ~jobs:3 prog );
    ]
  in
  let expect name prog want =
    List.iter2
      (fun (case, (e, pr, pe, tr, ta)) (e', pr', pe', tr', ta') ->
        let label = Printf.sprintf "fixture %s, %s" name case in
        check_int (label ^ ": explored") e' e;
        check_int (label ^ ": pruned") pr' pr;
        check_int (label ^ ": pending") pe' pe;
        check_bool (label ^ ": truncated") tr' tr;
        check_int (label ^ ": tasks") ta' ta)
      (cases prog) want
  in
  expect "A"
    [| [ W 0; R 1 ]; [ W 1; R 0 ]; [ R 0; R 1 ] |]
    [
      (90, 0, 0, false, 1);
      (7, 0, 6, true, 1);
      (450, 0, 0, false, 1);
      (11, 14, 0, false, 11);
      (11, 14, 0, false, 11);
      (11, 14, 0, false, 11);
      (4, 21, 0, false, 11);
      (7, 18, 0, false, 11);
      (11, 14, 0, false, 11);
      (11, 14, 0, false, 11);
      (11, 14, 0, false, 11);
    ];
  expect "B"
    [| [ W 0; R 1; W 1 ]; [ W 0; R 0; R 1 ]; [ R 1; W 0; R 1 ] |]
    [
      (1680, 0, 0, false, 1);
      (7, 0, 8, true, 1);
      (8820, 0, 0, false, 1);
      (57, 35, 0, false, 51);
      (42, 33, 17, true, 51);
      (42, 33, 17, true, 51);
      (1, 56, 0, false, 51);
      (7, 54, 0, false, 51);
      (46, 44, 0, false, 51);
      (37, 38, 15, true, 51);
      (37, 38, 15, true, 51);
    ]

(* --- parallel determinism ------------------------------------------------- *)

let test_jobs_determinism () =
  List.iter
    (fun (name, way, procs, mk) ->
      let a = E.search ~way ~jobs:1 ~procs mk
      and b = E.search ~way ~jobs:4 ~procs mk in
      check_bool (name ^ ": jobs=1 and jobs=4 outcomes identical") true (a = b))
    [
      ("systematic", E.Way.systematic, 3, racy_max ~procs:3);
      ("bounded", E.Way.Systematic E.Bounds.default, 3, lost_update ~procs:3);
      ( "uniform",
        E.Way.Uniform { seed = 5; count = 200 },
        5,
        lost_update ~procs:5 );
      ( "weighted",
        E.Way.Weighted { seed = 5; count = 200; bias = 8.0 },
        4,
        racy_max ~procs:4 );
    ]

let test_jobs_determinism_counterexamples () =
  let way = E.Way.Uniform { seed = 5; count = 200 } in
  let run jobs =
    E.search_check ~way ~jobs ~procs:5 (lost_update ~procs:5)
  in
  let r1 = run 1 and r4 = run 4 in
  check_bool "both find the bug" false
    (E.report_ok r1 || E.report_ok r4);
  match (r1.E.r_counterexample, r4.E.r_counterexample) with
  | Some c1, Some c4 ->
      check_bool "same first failing schedule" true
        (c1.E.cex_schedule = c4.E.cex_schedule);
      check_bool "same shrunk schedule" true (c1.E.cex_shrunk = c4.E.cex_shrunk);
      check_string "same provenance" c1.E.cex_way c4.E.cex_way
  | _ -> Alcotest.fail "expected counterexamples from both runs"

let () =
  Alcotest.run "ways"
    [
      ( "descriptions",
        [
          Alcotest.test_case "bounds and ways render" `Quick
            test_bounds_and_way_strings;
          Alcotest.test_case "legacy outcomes carry coverage" `Quick
            test_legacy_outcomes_carry_coverage;
        ] );
      ( "generator validity",
        [
          QCheck_alcotest.to_alcotest qcheck_samples_legal;
          QCheck_alcotest.to_alcotest qcheck_crash_samples_legal;
          QCheck_alcotest.to_alcotest qcheck_schedule_roundtrip;
        ] );
      ( "provenance",
        [
          Alcotest.test_case "sample tag re-derives the schedule" `Quick
            test_cex_provenance_rederives_schedule;
        ] );
      ( "differential completeness",
        [
          Alcotest.test_case "bounded matches exhaustive at procs 2-3" `Quick
            test_bounded_matches_exhaustive_small;
          Alcotest.test_case "systematic visits every trace class once"
            `Quick test_trace_class_census;
          Alcotest.test_case "random ways find corpus bugs at procs 5-8"
            `Quick test_random_ways_find_corpus_bugs_at_scale;
          Alcotest.test_case "bounds are bug-finding only" `Quick
            test_preempt_bound_is_bug_finding_only;
          Alcotest.test_case "weighted way catches a real-time bug" `Quick
            test_weighted_catches_realtime_bug;
          Alcotest.test_case "weighted way catches a torn seqlock read" `Quick
            test_weighted_catches_torn_seqlock_read;
        ] );
      ( "parallel determinism",
        [
          Alcotest.test_case "jobs-independent outcomes" `Quick
            test_jobs_determinism;
          Alcotest.test_case "jobs-independent counterexamples" `Quick
            test_jobs_determinism_counterexamples;
        ] );
      ( "walker counts",
        [
          Alcotest.test_case "exact counts on the census fixtures" `Quick
            test_exact_counts;
        ] );
    ]
