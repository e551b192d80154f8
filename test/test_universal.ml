(* Tests for the Figure 4 universal construction and its satellites:

   - Graph/Lingraph unit behaviour (acyclicity, Lemma 16/17 consequences);
   - linearizability of universal counter / gset / max-register /
     multi-writer register histories under random schedules and crashes,
     decided by the Wing-Gould checker against the sequential specs —
     the executable content of Theorem 26 / Corollary 27;
   - sequential equivalence between the generic construction and the
     type-optimized Direct implementations;
   - the Property 1 gate rejecting the queue;
   - pseudo read-modify-write correctness. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ctx ~procs pid = Runtime.Ctx.make ~procs ~pid ()

(* --- graph primitives ---------------------------------------------------- *)

let test_graph_paths () =
  let g = Universal.Graph.create 4 in
  Universal.Graph.add_edge g 0 1;
  Universal.Graph.add_edge g 1 2;
  check_bool "path 0->2" true (Universal.Graph.has_path g 0 2);
  check_bool "no path 2->0" false (Universal.Graph.has_path g 2 0);
  check_bool "cycle detection" true (Universal.Graph.edge_would_cycle g 2 0);
  Universal.Graph.add_edge g 3 0;
  check_bool "path 3->2 after insert" true (Universal.Graph.has_path g 3 2)

let test_graph_topo_deterministic () =
  let g = Universal.Graph.create 4 in
  Universal.Graph.add_edge g 2 1;
  Universal.Graph.add_edge g 3 1;
  check_bool "smallest-ready-first order" true
    (Universal.Graph.topo_sort g = [ 0; 2; 3; 1 ])

let qcheck_lingraph_acyclic =
  (* Lemma 18: for random precedence DAGs and arbitrary dominance
     relations, the lingraph is acyclic (topo_sort succeeds). *)
  QCheck.Test.make ~name:"Lemma 18: lingraph acyclic" ~count:300
    QCheck.(pair (int_bound 1_000_000) (int_range 2 8))
    (fun (seed, nodes) ->
      let rng = Random.State.make [| seed |] in
      (* random DAG respecting index order *)
      let edges = ref [] in
      for i = 0 to nodes - 1 do
        for j = i + 1 to nodes - 1 do
          if Random.State.float rng 1.0 < 0.3 then edges := (i, j) :: !edges
        done
      done;
      (* random (not even antisymmetric) "dominates" relation: the
         construction must still produce an acyclic graph because it
         checks every insertion *)
      let dom = Array.init nodes (fun _ -> Array.init nodes (fun _ -> Random.State.bool rng)) in
      let g =
        Universal.Lingraph.build ~nodes ~precedence_edges:!edges
          ~dominates:(fun i j -> dom.(i).(j))
      in
      match Universal.Graph.topo_sort g with
      | order -> List.length order = nodes
      | exception Invalid_argument _ -> false)

let qcheck_lingraph_orders_noncommuting =
  (* Lemma 16 consequence: concurrent operations where one dominates the
     other end up ordered (a path exists one way or the other). *)
  QCheck.Test.make ~name:"Lemma 16: dominating pairs get ordered" ~count:300
    QCheck.(pair (int_bound 1_000_000) (int_range 2 7))
    (fun (seed, nodes) ->
      let rng = Random.State.make [| seed |] in
      let edges = ref [] in
      for i = 0 to nodes - 1 do
        for j = i + 1 to nodes - 1 do
          if Random.State.float rng 1.0 < 0.25 then edges := (i, j) :: !edges
        done
      done;
      (* antisymmetric dominance *)
      let dom = Array.make_matrix nodes nodes false in
      for i = 0 to nodes - 1 do
        for j = 0 to nodes - 1 do
          if i <> j && not dom.(j).(i) then
            dom.(i).(j) <- Random.State.float rng 1.0 < 0.4
        done
      done;
      let g =
        Universal.Lingraph.build ~nodes ~precedence_edges:!edges
          ~dominates:(fun i j -> dom.(i).(j))
      in
      (* for every dominating pair, some path must exist *)
      let ok = ref true in
      for i = 0 to nodes - 1 do
        for j = 0 to nodes - 1 do
          if i <> j && dom.(i).(j) then
            if
              not
                (Universal.Graph.has_path g i j
                || Universal.Graph.has_path g j i)
            then ok := false
        done
      done;
      !ok)

(* --- Lemma 20: all linearizations of L(G) are equivalent ------------------ *)

(* Build random "realistic" precedence graphs of counter operations:
   nodes carry (pid, op); same-process operations are chained (a process
   is a single thread of control), and random forward cross-process edges
   model real-time precedence.  For every such graph, sample several
   randomized topological sorts of the lingraph and check that they all
   produce (a) the same final abstract state and (b) the same response
   for every operation at its position — the executable content of
   Lemma 20 and the property the Figure 4 construction relies on. *)
let qcheck_lemma20_linearizations_equivalent =
  QCheck.Test.make ~name:"Lemma 20: all linearizations equivalent" ~count:200
    QCheck.(pair (int_bound 1_000_000) (int_range 3 9))
    (fun (seed, nodes) ->
      let rng = Random.State.make [| seed |] in
      let pids = Array.init nodes (fun _ -> Random.State.int rng 3) in
      let ops =
        Array.init nodes (fun _ ->
            match Random.State.int rng 4 with
            | 0 -> Spec.Counter_spec.Inc (1 + Random.State.int rng 3)
            | 1 -> Spec.Counter_spec.Dec (1 + Random.State.int rng 3)
            | 2 -> Spec.Counter_spec.Reset (Random.State.int rng 10)
            | _ -> Spec.Counter_spec.Read)
      in
      (* per-process chains *)
      let edges = ref [] in
      let last = Hashtbl.create 4 in
      Array.iteri
        (fun i pid ->
          (match Hashtbl.find_opt last pid with
          | Some j -> edges := (j, i) :: !edges
          | None -> ());
          Hashtbl.replace last pid i)
        pids;
      (* random forward cross edges *)
      for i = 0 to nodes - 1 do
        for j = i + 1 to nodes - 1 do
          if pids.(i) <> pids.(j) && Random.State.float rng 1.0 < 0.2 then
            edges := (i, j) :: !edges
        done
      done;
      let dominates i j =
        Spec.Object_spec.dominates
          (module Spec.Counter_spec)
          ~p:ops.(i) ~p_pid:pids.(i) ~q:ops.(j) ~q_pid:pids.(j)
      in
      let g =
        Universal.Lingraph.build ~nodes ~precedence_edges:!edges ~dominates
      in
      (* replay a linearization: final state + per-node response *)
      let replay order =
        let state = ref Spec.Counter_spec.initial in
        let responses = Array.make nodes Spec.Counter_spec.Unit in
        List.iter
          (fun i ->
            let s', r = Spec.Counter_spec.apply !state ops.(i) in
            state := s';
            responses.(i) <- r)
          order;
        (!state, responses)
      in
      let reference = replay (Universal.Graph.topo_sort g) in
      List.for_all
        (fun s ->
          replay (Universal.Graph.topo_sort_seeded g ~seed:s) = reference)
        [ 1; 2; 3; 4; 5 ])

(* --- linearizability of universal objects -------------------------------- *)

module UC = Universal.Construction.Make (Spec.Counter_spec) (Pram.Memory.Sim_v)
module UG = Universal.Construction.Make (Spec.Gset_spec) (Pram.Memory.Sim_v)
module UM = Universal.Construction.Make (Spec.Max_register_spec) (Pram.Memory.Sim_v)
module UR = Universal.Construction.Make (Spec.Rw_register_spec) (Pram.Memory.Sim_v)
module Check_counter = Lincheck.Make (Spec.Counter_spec)
module Check_gset = Lincheck.Make (Spec.Gset_spec)
module Check_maxreg = Lincheck.Make (Spec.Max_register_spec)
module Check_rwreg = Lincheck.Make (Spec.Rw_register_spec)

(* Run a per-process operation script against a universal object under a
   random schedule, recording the history. *)
module Runner
    (O : Spec.Object_spec.S)
    (U : sig
      type t
      type mode
      type handle

      val create : ?variant:Snapshot.Scan.variant -> procs:int -> unit -> t
      val attach : ?mode:mode -> t -> Runtime.Ctx.t -> handle

      val execute : handle -> O.operation -> O.response
    end) =
struct
  let run ?variant ~procs ~seed ~crash_prob (script : int -> O.operation list)
      =
    let recorder = Spec.History.Recorder.create () in
    let program () =
      let t = U.create ?variant ~procs () in
      fun pid ->
        let h = U.attach t (ctx ~procs pid) in
        List.iter
          (fun op ->
            ignore
              (Spec.History.Recorder.record recorder ~pid op (fun () ->
                   U.execute h op)))
          (script pid)
    in
    let d = Pram.Driver.create ~procs program in
    Pram.Scheduler.run ~max_steps:5_000_000
      (Pram.Scheduler.random ~crash_prob ~min_alive:1 ~seed ())
      d;
    for p = 0 to procs - 1 do
      if Pram.Driver.runnable d p then ignore (Pram.Driver.run_solo d p)
    done;
    Spec.History.Recorder.events recorder
end

module Run_counter = Runner (Spec.Counter_spec) (UC)
module Run_gset = Runner (Spec.Gset_spec) (UG)
module Run_maxreg = Runner (Spec.Max_register_spec) (UM)
module Run_rwreg = Runner (Spec.Rw_register_spec) (UR)

let qcheck_universal_counter_linearizable =
  QCheck.Test.make ~name:"Theorem 26: universal counter linearizable"
    ~count:150
    QCheck.(pair (int_bound 1_000_000) bool)
    (fun (seed, crash) ->
      let script pid =
        let open Spec.Counter_spec in
        match pid with
        | 0 -> [ Inc 1; Read; Inc 2 ]
        | 1 -> [ Dec 1; Read ]
        | _ -> [ Reset 10; Read ]
      in
      let events =
        Run_counter.run ~procs:3 ~seed
          ~crash_prob:(if crash then 0.03 else 0.0)
          script
      in
      Check_counter.is_linearizable events)

let qcheck_universal_gset_linearizable =
  QCheck.Test.make ~name:"Theorem 26: universal gset linearizable" ~count:150
    QCheck.(pair (int_bound 1_000_000) bool)
    (fun (seed, crash) ->
      let script pid =
        let open Spec.Gset_spec in
        match pid with
        | 0 -> [ Add 1; Members ]
        | 1 -> [ Add 2; Clear; Members ]
        | _ -> [ Add 3; Members ]
      in
      let events =
        Run_gset.run ~procs:3 ~seed
          ~crash_prob:(if crash then 0.03 else 0.0)
          script
      in
      Check_gset.is_linearizable events)

let qcheck_universal_maxreg_linearizable =
  QCheck.Test.make ~name:"Theorem 26: universal max-register linearizable"
    ~count:150
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let script pid =
        let open Spec.Max_register_spec in
        match pid with
        | 0 -> [ Write_max 5; Read_max ]
        | 1 -> [ Write_max 9; Read_max ]
        | _ -> [ Read_max; Write_max 3; Read_max ]
      in
      let events = Run_maxreg.run ~procs:3 ~seed ~crash_prob:0.0 script in
      Check_maxreg.is_linearizable events)

let qcheck_universal_rwreg_linearizable =
  (* The multi-writer register falls out of the characterization: writes
     mutually overwrite, ordered by dominance tie-break. *)
  QCheck.Test.make ~name:"multi-writer register from single-writer"
    ~count:150
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let script pid =
        let open Spec.Rw_register_spec in
        match pid with
        | 0 -> [ Write 1; Read ]
        | 1 -> [ Write 2; Read ]
        | _ -> [ Read; Write 3; Read ]
      in
      let events = Run_rwreg.run ~procs:3 ~seed ~crash_prob:0.0 script in
      Check_rwreg.is_linearizable events)

(* --- sequential behaviour and the wait-free bound ------------------------ *)

module UC_d = Universal.Construction.Make (Spec.Counter_spec) (Pram.Memory.Direct_v)

let test_universal_counter_sequential () =
  let t = UC_d.create ~procs:2 () in
  let h0 = UC_d.attach t (ctx ~procs:2 0) in
  let h1 = UC_d.attach t (ctx ~procs:2 1) in
  let open Spec.Counter_spec in
  check_bool "inc" true (UC_d.execute h0 (Inc 5) = Unit);
  check_bool "dec" true (UC_d.execute h1 (Dec 2) = Unit);
  check_bool "read" true (UC_d.execute h0 Read = Value 3);
  check_bool "reset" true (UC_d.execute h1 (Reset 100) = Unit);
  check_bool "read after reset" true (UC_d.execute h0 Read = Value 100);
  check_int "history grows" 5 (UC_d.history_size h0)

(* --- satellite: Lattice anchors are drop-in for Optimized ones ----------- *)

(* Same random script, same operation-level interleaving, byte-identical
   histories.  Whole operations are the atomic turns (Direct memory, no
   driver), so the interleaving is fixed by the seed and the ONLY
   difference between the two runs is the scan protocol the anchor
   snapshots use — any divergence in responses would be a soundness bug
   in the lattice scan's join semantics. *)
module Hist_ident (O : Spec.Object_spec.S) = struct
  module U = Universal.Construction.Make (O) (Pram.Memory.Direct_v)

  let run ~variant ~procs ~turns (scripts : O.operation array array) =
    let t = U.create ~variant ~procs () in
    let hs = Array.init procs (fun p -> U.attach t (ctx ~procs p)) in
    let next = Array.make procs 0 in
    List.map
      (fun p ->
        let i = next.(p) in
        next.(p) <- i + 1;
        (p, scripts.(p).(i), U.execute hs.(p) scripts.(p).(i)))
      turns

  let identical ~procs ~turns scripts =
    let h v = run ~variant:v ~procs ~turns scripts in
    Marshal.to_string (h Snapshot.Scan.Optimized) []
    = Marshal.to_string (h Snapshot.Scan.Lattice) []
end

module HI_counter = Hist_ident (Spec.Counter_spec)
module HI_gset = Hist_ident (Spec.Gset_spec)

(* one turn per scripted operation, shuffled: both runs exhaust every
   script in the same order *)
let shuffled_turns st scripts =
  let procs = Array.length scripts in
  List.concat
    (List.init procs (fun p ->
         List.init (Array.length scripts.(p)) (fun _ -> p)))
  |> List.map (fun p -> (Random.State.bits st, p))
  |> List.sort compare
  |> List.map snd

let qcheck_lattice_counter_histories_identical =
  QCheck.Test.make
    ~name:"lattice vs optimized: counter histories byte-identical"
    ~count:200
    QCheck.(pair (int_bound 1_000_000) (int_range 1 4))
    (fun (seed, procs) ->
      let st = Random.State.make [| seed; procs; 0xC0 |] in
      let op _ =
        let open Spec.Counter_spec in
        match Random.State.int st 6 with
        | 0 -> Inc (1 + Random.State.int st 5)
        | 1 -> Dec (1 + Random.State.int st 5)
        | 2 -> Reset (Random.State.int st 10)
        | _ -> Read
      in
      let scripts =
        Array.init procs (fun _ ->
            Array.init (1 + Random.State.int st 6) op)
      in
      HI_counter.identical ~procs ~turns:(shuffled_turns st scripts) scripts)

let qcheck_lattice_gset_histories_identical =
  QCheck.Test.make
    ~name:"lattice vs optimized: gset histories byte-identical"
    ~count:200
    QCheck.(pair (int_bound 1_000_000) (int_range 1 4))
    (fun (seed, procs) ->
      let st = Random.State.make [| seed; procs; 0x65 |] in
      let op _ =
        let open Spec.Gset_spec in
        match Random.State.int st 5 with
        | 0 | 1 -> Add (Random.State.int st 6)
        | 2 -> Clear
        | _ -> Members
      in
      let scripts =
        Array.init procs (fun _ ->
            Array.init (1 + Random.State.int st 6) op)
      in
      HI_gset.identical ~procs ~turns:(shuffled_turns st scripts) scripts)

let qcheck_universal_counter_lattice_linearizable =
  (* and under real concurrency: Lattice anchors through the full
     driver, random schedules with crashes, checked linearizable *)
  QCheck.Test.make
    ~name:"Theorem 26 on Lattice anchors: counter linearizable" ~count:100
    QCheck.(pair (int_bound 1_000_000) bool)
    (fun (seed, crash) ->
      let script pid =
        let open Spec.Counter_spec in
        match pid with
        | 0 -> [ Inc 1; Read; Inc 2 ]
        | 1 -> [ Dec 1; Read ]
        | _ -> [ Reset 10; Read ]
      in
      let events =
        Run_counter.run ~variant:Snapshot.Scan.Lattice ~procs:3 ~seed
          ~crash_prob:(if crash then 0.03 else 0.0)
          script
      in
      Check_counter.is_linearizable events)

let test_universal_query_matches_execute () =
  let t = UC_d.create ~procs:2 () in
  let h0 = UC_d.attach t (ctx ~procs:2 0) in
  let h1 = UC_d.attach t (ctx ~procs:2 1) in
  let open Spec.Counter_spec in
  ignore (UC_d.execute h0 (Inc 7));
  check_bool "query read" true (UC_d.query h1 Read = Value 7);
  (* query does not grow the history *)
  check_int "history unchanged by query" 1 (UC_d.history_size h0)

let test_universal_steps_bounded () =
  (* The synchronization overhead per operation is one snapshot plus one
     update.  The construction runs the Adaptive scan, so a solo (hence
     uncontended) op is exactly the combined fast-path formula: the
     snapshot pays the 4(n-1) validation reads (its bottom contribution
     skips the publish) and the update is the publish write alone. *)
  let procs = 4 in
  let program () =
    let t = UC.create ~procs () in
    fun pid ->
      let h = UC.attach t (ctx ~procs pid) in
      ignore (UC.execute h (Spec.Counter_spec.Inc pid))
  in
  let d = Pram.Driver.create ~procs program in
  check_bool "finishes" true (Pram.Driver.run_solo d 0);
  let reads, writes =
    Snapshot.Scan.cost_formula ~procs Snapshot.Scan.Adaptive
  in
  check_int "steps = snapshot + update" (reads + writes)
    (Pram.Driver.steps d 0)

let qcheck_universal_wait_free =
  QCheck.Test.make ~name:"universal op completes solo after crashes"
    ~count:100
    QCheck.(pair (int_bound 1_000_000) (int_bound 150))
    (fun (seed, prefix_len) ->
      let procs = 3 in
      let program () =
        let t = UC.create ~procs () in
        fun pid ->
          let h = UC.attach t (ctx ~procs pid) in
          ignore (UC.execute h (Spec.Counter_spec.Inc (pid + 1)));
          ignore (UC.execute h Spec.Counter_spec.Read)
      in
      let d = Pram.Driver.create ~procs program in
      let sched = Pram.Scheduler.random ~seed () in
      for _ = 1 to prefix_len do
        match sched d with
        | Pram.Scheduler.Step p -> Pram.Driver.step d p
        | _ -> ()
      done;
      Pram.Driver.crash d 1;
      Pram.Driver.crash d 2;
      Pram.Driver.run_solo ~max_steps:1_000 d 0)

(* --- long-lived workloads (the "unbounded lifetime" the paper stresses) -- *)

module DC_s2 = Universal.Direct.Counter (Pram.Memory.Sim_v)

let qcheck_long_lived_universal_counter =
  (* inc/dec only: whatever the schedule, once quiescent the counter's
     value is the exact signed sum of all operations — checked through a
     60-operation history, where the precedence graph and lingraph have
     real depth *)
  QCheck.Test.make ~name:"long-lived universal counter: exact final sum"
    ~count:30
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let procs = 3 in
      let per_proc = 20 in
      let rng = Random.State.make [| seed; 0xfeed |] in
      let script =
        Array.init procs (fun _ ->
            List.init per_proc (fun _ ->
                let amt = 1 + Random.State.int rng 5 in
                if Random.State.bool rng then Spec.Counter_spec.Inc amt
                else Spec.Counter_spec.Dec amt))
      in
      let expected =
        Array.fold_left
          (fun acc ops ->
            List.fold_left
              (fun acc op ->
                match op with
                | Spec.Counter_spec.Inc n -> acc + n
                | Spec.Counter_spec.Dec n -> acc - n
                | Spec.Counter_spec.Reset _ | Spec.Counter_spec.Read -> acc)
              acc ops)
          0 script
      in
      let program () =
        let t = UC.create ~procs () in
        fun pid ->
          let h = UC.attach t (ctx ~procs pid) in
          List.iter (fun op -> ignore (UC.execute h op)) script.(pid);
          UC.execute h Spec.Counter_spec.Read
      in
      let d = Pram.Driver.create ~procs program in
      Pram.Scheduler.run ~max_steps:50_000_000
        (Pram.Scheduler.random ~seed ())
        d;
      for p = 0 to procs - 1 do
        if Pram.Driver.runnable d p then ignore (Pram.Driver.run_solo d p)
      done;
      (* the LAST process to finish reads after quiescence of all writes;
         all reads are bounded by the expected total, and at least one
         process's final read must see everything *)
      let reads =
        List.filter_map
          (fun p ->
            match Pram.Driver.result d p with
            | Some (Spec.Counter_spec.Value v) -> Some v
            | _ -> None)
          (List.init procs Fun.id)
      in
      List.length reads = procs && List.exists (fun v -> v = expected) reads)

let test_long_lived_direct_counter () =
  (* 300 operations through the direct counter under a bursty schedule:
     exact final sum, constant per-op cost *)
  let procs = 3 in
  let per_proc = 100 in
  let program () =
    let t = DC_s2.create ~procs in
    fun pid ->
      let h = DC_s2.attach t (ctx ~procs pid) in
      for i = 1 to per_proc do
        if i mod 3 = 0 then DC_s2.dec h 1 else DC_s2.inc h 2
      done;
      DC_s2.read h
  in
  let d = Pram.Driver.create ~procs program in
  Pram.Scheduler.run ~max_steps:50_000_000
    (Workload.scheduler_of (Workload.Bursty 17))
    d;
  for p = 0 to procs - 1 do
    if Pram.Driver.runnable d p then ignore (Pram.Driver.run_solo d p)
  done;
  let per_proc_sum = (67 * 2) - 33 in
  let expected = procs * per_proc_sum in
  let got =
    List.filter_map (Pram.Driver.result d) (List.init procs Fun.id)
  in
  Alcotest.(check bool) "one read saw the full sum" true
    (List.exists (fun v -> v = expected) got)

(* --- Property 1 gate ------------------------------------------------------ *)

let test_property1_gate () =
  let counter_ops =
    Spec.Counter_spec.[ Inc 1; Dec 1; Reset 5; Read ]
  in
  check_bool "counter passes" true
    (Universal.Construction.check_property1 (module Spec.Counter_spec) counter_ops
    = Ok ());
  let queue_ops = Spec.Queue_spec.[ Enq 1; Deq ] in
  check_bool "queue rejected" true
    (match
       Universal.Construction.check_property1 (module Spec.Queue_spec) queue_ops
     with
    | Error _ -> true
    | Ok () -> false)

(* --- direct constructions (the E9 ablation) ------------------------------- *)

module DC_d = Universal.Direct.Counter (Pram.Memory.Direct_v)
module DG_d = Universal.Direct.Gset (Pram.Memory.Direct_v)
module DM_d = Universal.Direct.Max_register (Pram.Memory.Direct_v)
module LC_d = Universal.Direct.Logical_clock (Pram.Memory.Direct_v)
module DC_s = Universal.Direct.Counter (Pram.Memory.Sim_v)

let test_direct_counter_sequential () =
  let t = DC_d.create ~procs:2 in
  let h0 = DC_d.attach t (ctx ~procs:2 0) in
  let h1 = DC_d.attach t (ctx ~procs:2 1) in
  DC_d.inc h0 5;
  DC_d.dec h1 2;
  check_int "value" 3 (DC_d.read h0);
  DC_d.inc h1 10;
  check_int "value again" 13 (DC_d.read h1)

let test_direct_counter_rejects_negative () =
  let t = DC_d.create ~procs:1 in
  let h0 = DC_d.attach t (ctx ~procs:1 0) in
  check_bool "negative inc rejected" true
    (try DC_d.inc h0 (-1); false with Invalid_argument _ -> true)

let qcheck_direct_counter_linearizable =
  (* Direct counter histories must satisfy the same counter spec
     (restricted to inc/dec/read). *)
  QCheck.Test.make ~name:"direct counter linearizable" ~count:150
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let procs = 3 in
      let recorder = Spec.History.Recorder.create () in
      let program () =
        let t = DC_s2.create ~procs in
        fun pid ->
          let h = DC_s2.attach t (ctx ~procs pid) in
          ignore
            (Spec.History.Recorder.record recorder ~pid
               (Spec.Counter_spec.Inc (pid + 1)) (fun () ->
                 DC_s2.inc h (pid + 1);
                 Spec.Counter_spec.Unit));
          ignore
            (Spec.History.Recorder.record recorder ~pid Spec.Counter_spec.Read
               (fun () -> Spec.Counter_spec.Value (DC_s2.read h)))
      in
      let d = Pram.Driver.create ~procs program in
      Pram.Scheduler.run (Pram.Scheduler.random ~seed ()) d;
      Check_counter.is_linearizable (Spec.History.Recorder.events recorder))

let test_direct_gset () =
  let t = DG_d.create ~procs:2 in
  let h0 = DG_d.attach t (ctx ~procs:2 0) in
  let h1 = DG_d.attach t (ctx ~procs:2 1) in
  DG_d.add h0 3;
  DG_d.add h1 7;
  check_bool "members" true (DG_d.members h0 = [ 3; 7 ]);
  check_bool "mem" true (DG_d.mem h1 3);
  check_bool "not mem" false (DG_d.mem h1 99)

let test_direct_max_register () =
  let t = DM_d.create ~procs:2 in
  let h0 = DM_d.attach t (ctx ~procs:2 0) in
  let h1 = DM_d.attach t (ctx ~procs:2 1) in
  DM_d.write_max h0 5;
  DM_d.write_max h1 3;
  check_int "max" 5 (DM_d.read_max h0);
  DM_d.write_max h1 11;
  check_int "max again" 11 (DM_d.read_max h0)

let test_logical_clock () =
  let t = LC_d.create ~procs:2 in
  let h0 = LC_d.attach t (ctx ~procs:2 0) in
  let h1 = LC_d.attach t (ctx ~procs:2 1) in
  let t1 = LC_d.tick h0 in
  let t2 = LC_d.tick h1 in
  check_bool "ticks increase" true (LC_d.compare_ts t1 t2 < 0);
  LC_d.observe h0 (100, 1);
  let t3 = LC_d.tick h0 in
  check_bool "tick after observe exceeds observed" true (fst t3 > 100);
  check_int "now" (fst t3) (LC_d.now h1)

(* --- pseudo read-modify-write -------------------------------------------- *)

module Add_mul_mod = struct
  (* additions modulo a prime commute *)
  type value = int
  type f = int  (* add f mod 9973 *)

  let init = 0
  let apply v f = (v + f) mod 9973
  let equal_f = Int.equal
  let pp_f = Format.pp_print_int
end

module PRMW_d = Universal.Pseudo_rmw.Make (Add_mul_mod) (Pram.Memory.Direct_v)
module PRMW_s = Universal.Pseudo_rmw.Make (Add_mul_mod) (Pram.Memory.Sim_v)

let test_pseudo_rmw_sequential () =
  let t = PRMW_d.create ~procs:2 in
  let h0 = PRMW_d.attach t (ctx ~procs:2 0) in
  let h1 = PRMW_d.attach t (ctx ~procs:2 1) in
  PRMW_d.pseudo_rmw h0 5;
  PRMW_d.pseudo_rmw h1 7;
  check_int "sum" 12 (PRMW_d.read h0);
  check_int "count" 2 (PRMW_d.applied_count h1)

let qcheck_pseudo_rmw_concurrent =
  (* Under any schedule, once quiescent, the value is the fold of all
     applied functions (commutativity makes the order irrelevant). *)
  QCheck.Test.make ~name:"pseudo rmw converges to the full fold" ~count:150
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let procs = 3 in
      let per_proc = 4 in
      let program () =
        let t = PRMW_s.create ~procs in
        fun pid ->
          let h = PRMW_s.attach t (ctx ~procs pid) in
          for i = 1 to per_proc do
            PRMW_s.pseudo_rmw h ((pid * 10) + i)
          done;
          PRMW_s.read h
      in
      let d = Pram.Driver.create ~procs program in
      Pram.Scheduler.run (Pram.Scheduler.random ~seed ()) d;
      (* after quiescence, a fresh read by any process sees everything *)
      let expected = ref 0 in
      for pid = 0 to procs - 1 do
        for i = 1 to per_proc do
          expected := Add_mul_mod.apply !expected ((pid * 10) + i)
        done
      done;
      (* all processes finished; each process's final read is a join of a
         subset; validity: each result is the fold of some subset that
         includes the process's own ops.  A full fresh read must equal
         the total. *)
      let d2 =
        Pram.Driver.replay ~procs program (Pram.Driver.schedule d)
      in
      ignore d2;
      (* simply check each completed process's read is consistent:
         our strongest easy check is that the maximum result equals the
         expected total when all ops are visible. *)
      let results =
        List.filter_map (Pram.Driver.result d) (List.init procs Fun.id)
      in
      List.length results = procs
      && List.exists (fun r -> r = !expected) results)

let () =
  Alcotest.run "universal"
    [
      ( "graph",
        [
          Alcotest.test_case "paths and cycles" `Quick test_graph_paths;
          Alcotest.test_case "topo deterministic" `Quick
            test_graph_topo_deterministic;
          QCheck_alcotest.to_alcotest qcheck_lingraph_acyclic;
          QCheck_alcotest.to_alcotest qcheck_lingraph_orders_noncommuting;
          QCheck_alcotest.to_alcotest qcheck_lemma20_linearizations_equivalent;
        ] );
      ( "universal",
        [
          Alcotest.test_case "counter sequential" `Quick
            test_universal_counter_sequential;
          Alcotest.test_case "query matches execute" `Quick
            test_universal_query_matches_execute;
          Alcotest.test_case "steps = two scans" `Quick
            test_universal_steps_bounded;
          Alcotest.test_case "Property 1 gate" `Quick test_property1_gate;
          QCheck_alcotest.to_alcotest qcheck_universal_counter_linearizable;
          QCheck_alcotest.to_alcotest
            qcheck_lattice_counter_histories_identical;
          QCheck_alcotest.to_alcotest qcheck_lattice_gset_histories_identical;
          QCheck_alcotest.to_alcotest
            qcheck_universal_counter_lattice_linearizable;
          QCheck_alcotest.to_alcotest qcheck_universal_gset_linearizable;
          QCheck_alcotest.to_alcotest qcheck_universal_maxreg_linearizable;
          QCheck_alcotest.to_alcotest qcheck_universal_rwreg_linearizable;
          QCheck_alcotest.to_alcotest qcheck_universal_wait_free;
          QCheck_alcotest.to_alcotest qcheck_long_lived_universal_counter;
          Alcotest.test_case "long-lived direct counter" `Quick
            test_long_lived_direct_counter;
        ] );
      ( "direct",
        [
          Alcotest.test_case "counter sequential" `Quick
            test_direct_counter_sequential;
          Alcotest.test_case "counter rejects negatives" `Quick
            test_direct_counter_rejects_negative;
          Alcotest.test_case "gset" `Quick test_direct_gset;
          Alcotest.test_case "max register" `Quick test_direct_max_register;
          Alcotest.test_case "logical clock" `Quick test_logical_clock;
          QCheck_alcotest.to_alcotest qcheck_direct_counter_linearizable;
        ] );
      ( "pseudo-rmw",
        [
          Alcotest.test_case "sequential" `Quick test_pseudo_rmw_sequential;
          QCheck_alcotest.to_alcotest qcheck_pseudo_rmw_concurrent;
        ] );
    ]
