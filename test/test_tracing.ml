(* Tests for the structured tracing layer: the journal and both feeds
   (driver observer on the simulator, the Instrument wrapper on native
   domains), the two renderers, the Chrome archive's save/parse round
   trip (including the byte-identity guarantee under schedule replay on
   the simulator) and the JSON reader under it, counterexample tracing
   through Lincheck, and the zero-overhead-off guarantees. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* --- journal basics ---------------------------------------------------------- *)

let test_journal_basics () =
  Alcotest.check_raises "procs 0 rejected"
    (Invalid_argument "Tracing.Journal.create: procs <= 0") (fun () ->
      ignore (Tracing.Journal.create ~procs:0 ()));
  let j = Tracing.Journal.create ~procs:2 () in
  check_int "empty" 0 (Tracing.Journal.length j);
  check_bool "default clock is logical" true
    (Tracing.Journal.clock j = `Logical);
  Tracing.Journal.invoke j ~pid:0 "op";
  Tracing.Journal.annotate j ~pid:1 "note";
  Tracing.Journal.response j ~pid:0 "op";
  Tracing.Journal.crash j ~pid:1;
  check_int "four events" 4 (Tracing.Journal.length j);
  let evs = Tracing.Journal.events j in
  check_bool "seq is journal order" true
    (List.mapi (fun i _ -> i) evs
    = List.map (fun e -> e.Tracing.seq) evs);
  check_bool "logical time = seq" true
    (List.for_all (fun e -> e.Tracing.time = e.Tracing.seq) evs);
  (try
     Tracing.Journal.annotate j ~pid:2 "out of range";
     Alcotest.fail "pid out of range accepted"
   with Invalid_argument _ -> ())

let test_with_span_on_exception () =
  let j = Tracing.Journal.create ~procs:1 () in
  (try
     Tracing.Journal.with_span j ~pid:0 ~op:"boom" (fun () ->
         failwith "inner")
   with Failure _ -> ());
  match Tracing.Journal.events j with
  | [ { Tracing.ev = Tracing.Invoke "boom"; _ };
      { Tracing.ev = Tracing.Response "boom"; _ } ] ->
      ()
  | _ -> Alcotest.fail "span must close even when the body raises"

(* --- archive round trip (the JSON archive is text too) ----------------------- *)

let weird_archive =
  let j = Tracing.Journal.create ~procs:3 () in
  Tracing.Journal.invoke j ~pid:0 "a\"b\\c\nd\te";
  Tracing.Journal.access j ~pid:1 ~kind:Pram.Trace.Read ~reg_id:7
    ~reg_name:"r[1] \"quoted\"";
  Tracing.Journal.annotate j ~pid:2 "";
  Tracing.Journal.crash j ~pid:1;
  Tracing.Journal.access j ~pid:0 ~kind:Pram.Trace.Write ~reg_id:0
    ~reg_name:"\x01control";
  Tracing.Journal.response j ~pid:0 "a\"b\\c\nd\te";
  Tracing.archive ~schedule:[ 0; 1; -2; 0 ] j

let test_text_roundtrip_structural () =
  let a = weird_archive in
  (match Tracing.parse (Tracing.save a) with
  | Error e -> Alcotest.fail ("parse of save failed: " ^ e)
  | Ok a' ->
      check_bool "parse (save a) = a" true (a' = a);
      check_string "save is stable" (Tracing.save a) (Tracing.save a'));
  (* a monotonic archive keeps its nanoseconds through the microsecond
     timestamps *)
  let mono =
    { weird_archive with
      Tracing.a_clock = `Monotonic;
      a_events =
        List.mapi
          (fun i e -> { e with Tracing.time = (i * 1_000_003) + 7 })
          weird_archive.Tracing.a_events }
  in
  (match Tracing.parse (Tracing.save mono) with
  | Ok a' -> check_bool "monotonic times round-trip to the ns" true (a' = mono)
  | Error e -> Alcotest.fail e);
  (* empty journal, empty schedule *)
  let empty =
    Tracing.archive (Tracing.Journal.create ~procs:1 ())
  in
  match Tracing.parse (Tracing.save empty) with
  | Ok e -> check_bool "empty round-trips" true (e = empty)
  | Error e -> Alcotest.fail e

(* A logical archive with procs 1, fields substituted into the saved
   form of one access event. *)
let archive_text ?(procs = "1") ?(clock = "\"logical\"") ?(schedule = "[0]")
    ?(event =
      "\"cat\": \"access\", \"ph\": \"i\", \"tid\": 0, \"args\": \
       {\"reg\": \"r\", \"reg_id\": 0, \"kind\": \"W\"}") () =
  Printf.sprintf
    "{\"traceEvents\": [{\"name\": \"process_name\", \"ph\": \"M\", \
     \"pid\": 1, \"tid\": 0, \"args\": {\"name\": \"wfa\"}}, {\"name\": \
     \"W r\", \"ts\": 0, \"pid\": 1, %s}], \"otherData\": {\"procs\": %s, \
     \"clock\": %s, \"schedule\": %s}}"
    event procs clock schedule

let test_parse_errors () =
  let expect_error label s =
    match Tracing.parse s with
    | Ok _ -> Alcotest.fail (label ^ ": accepted")
    | Error _ -> ()
  in
  (match Tracing.parse (archive_text ()) with
  | Ok { Tracing.a_events = [ { ev = Access _; _ } ]; a_schedule = [ 0 ]; _ } ->
      ()
  | Ok _ -> Alcotest.fail "the well-formed archive decodes wrongly"
  | Error e -> Alcotest.fail ("the well-formed archive is rejected: " ^ e));
  expect_error "garbage" "hello";
  expect_error "no traceEvents"
    "{\"otherData\": {\"procs\": 1, \"clock\": \"logical\", \"schedule\": []}}";
  expect_error "no otherData" "{\"traceEvents\": []}";
  expect_error "bad procs" (archive_text ~procs:"\"x\"" ());
  expect_error "zero procs" (archive_text ~procs:"0" ());
  expect_error "bad clock" (archive_text ~clock:"\"lunar\"" ());
  expect_error "bad schedule" (archive_text ~schedule:"\"p0\"" ());
  expect_error "fractional schedule entry" (archive_text ~schedule:"[0.5]" ());
  expect_error "schedule entry out of range" (archive_text ~schedule:"[1]" ());
  expect_error "pid out of range"
    (archive_text ~event:"\"cat\": \"crash\", \"ph\": \"i\", \"tid\": 3" ());
  expect_error "unknown cat"
    (archive_text ~event:"\"cat\": \"lunch\", \"ph\": \"i\", \"tid\": 0" ());
  expect_error "unknown ph"
    (archive_text ~event:"\"cat\": \"op\", \"ph\": \"X\", \"tid\": 0" ());
  expect_error "access without args"
    (archive_text ~event:"\"cat\": \"access\", \"ph\": \"i\", \"tid\": 0" ())

(* The reader takes exactly RFC 8259's numbers: each of these is
   rejected alone and inside an array. *)
let test_json_numbers () =
  List.iter
    (fun n ->
      List.iter
        (fun s ->
          check_bool (Printf.sprintf "%S rejected" s) true
            (Result.is_error (Json.parse s)))
        [ n; "[" ^ n ^ ",2]" ])
    [ "1."; ".5"; "+1"; "01"; "-"; "1e"; "1e+"; "-01"; "0x1"; "1_0"; "1e400" ];
  List.iter
    (fun (s, v) ->
      check_bool (Printf.sprintf "%S reads as %g" s v) true
        (Json.parse s = Ok (Json.Num v)))
    [ ("-0", -0.0); ("0.5", 0.5); ("1e+21", 1e21); ("-12.5E-1", -1.25) ];
  (* the printer's shortest form reads back to the same float *)
  List.iter
    (fun v ->
      let s = Json.to_string (Json.Num v) in
      check_bool (Printf.sprintf "%s reads back" s) true
        (Json.parse s = Ok (Json.Num v)))
    [ 1.0 /. 81.0; 33.609640474436816; 1e21; -0.0; 1234.567; 5e-324 ]

let test_json_unicode () =
  let fffd = "\xEF\xBF\xBD" in
  List.iter
    (fun (s, v) ->
      check_bool (Printf.sprintf "%s reads as %S" s v) true
        (Json.parse s = Ok (Json.Str v)))
    [
      ({|"\u00e9"|}, "\xC3\xA9");
      ({|"\ud83d\ude00"|}, "\xF0\x9F\x98\x80");
      ({|"\ud83d"|}, fffd);
      ({|"\ude00"|}, fffd);
      ({|"\ude00\ud83d"|}, fffd ^ fffd);
      ({|"\ud83dx"|}, fffd ^ "x");
    ];
  check_bool "a truncated low half is rejected" true
    (Result.is_error (Json.parse {|"\ud83d\ude0"|}));
  let emoji = "\xF0\x9F\x98\x80" in
  check_bool "the printer's emoji reads back" true
    (Json.parse (Json.to_string (Json.Str emoji)) = Ok (Json.Str emoji))

(* --- simulator: observer feed, save -> load -> replay byte identity ---------- *)

(* The scan workload with span annotations, parameterized by the journal
   so a replay can attach a fresh one. *)
let scan_program ~procs j () =
  let module S = Snapshot.Scan.Make (Semilattice.Int_max) (Pram.Memory.Sim_v) in
  let t = S.create ~variant:Snapshot.Scan.Optimized ~procs in
  let sink = Runtime.Sink.make ~journal:j () in
  fun pid ->
    let h = S.attach t (Runtime.Ctx.make ~sink ~procs ~pid ()) in
    S.write_l h (pid + 1);
    ignore (S.read_max h)

let traced_scan_run ~procs ~seed =
  let j = Tracing.Journal.create ~procs () in
  let d =
    Pram.Driver.create
      ~observer:(Tracing.Journal.observer j)
      ~procs (scan_program ~procs j)
  in
  Pram.Scheduler.run (Pram.Scheduler.random ~seed ()) d;
  for p = 0 to procs - 1 do
    if Pram.Driver.runnable d p then ignore (Pram.Driver.run_solo d p)
  done;
  Tracing.archive ~schedule:(Pram.Driver.schedule d) j

let replay_scan ~procs sched =
  let j = Tracing.Journal.create ~procs () in
  let d =
    Pram.Driver.create
      ~observer:(Tracing.Journal.observer j)
      ~procs (scan_program ~procs j)
  in
  ignore (Pram.Explore.apply_encoded d sched);
  Tracing.archive ~schedule:sched j

let test_sim_replay_byte_identical () =
  List.iter
    (fun seed ->
      let a = traced_scan_run ~procs:2 ~seed in
      check_bool "events recorded" true (List.length a.Tracing.a_events > 0);
      (* the acceptance loop: save -> load -> replay -> re-export *)
      let saved = Tracing.save a in
      match Tracing.parse saved with
      | Error e -> Alcotest.fail ("reload failed: " ^ e)
      | Ok loaded ->
          check_bool (Printf.sprintf "seed %d: reload is exact" seed) true
            (loaded = a);
          let replayed = replay_scan ~procs:2 loaded.Tracing.a_schedule in
          check_string
            (Printf.sprintf "seed %d: re-export byte-identical" seed)
            saved (Tracing.save replayed);
          check_string
            (Printf.sprintf "seed %d: timeline identical" seed)
            (Tracing.timeline a)
            (Tracing.timeline replayed))
    [ 1; 7; 42 ]

let test_observer_interleaves_with_spans () =
  (* Accesses (observer feed) and spans/annotations (direct feed) land in
     one totally ordered journal: each scan span must contain that scan's
     accesses between its Invoke and Response. *)
  let a = traced_scan_run ~procs:2 ~seed:5 in
  let depth = Array.make 2 0 in
  List.iter
    (fun e ->
      match e.Tracing.ev with
      | Tracing.Invoke _ -> depth.(e.Tracing.pid) <- depth.(e.Tracing.pid) + 1
      | Tracing.Response _ ->
          check_bool "response closes an open span" true
            (depth.(e.Tracing.pid) > 0);
          depth.(e.Tracing.pid) <- depth.(e.Tracing.pid) - 1
      | Tracing.Access _ | Tracing.Annotate _ ->
          check_bool "access/annotation inside a span" true
            (depth.(e.Tracing.pid) > 0)
      | Tracing.Crash -> ())
    a.Tracing.a_events;
  check_bool "all spans closed" true (depth = [| 0; 0 |])

(* --- chrome export ----------------------------------------------------------- *)

let test_chrome_archive_validates () =
  let a = traced_scan_run ~procs:3 ~seed:11 in
  (match Json.parse (Tracing.save a) with
  | Ok (Json.Obj (("traceEvents", Json.Arr evs) :: _)) ->
      (* process name, one thread name per pid, then the journal *)
      check_int "one line per event" (1 + 3 + List.length a.Tracing.a_events)
        (List.length evs)
  | Ok _ -> Alcotest.fail "the archive does not open with traceEvents"
  | Error e -> Alcotest.fail ("chrome JSON rejected by Json.parse: " ^ e));
  (* labels with quotes/newlines stay valid JSON, in the Trace Event
     layout viewers read *)
  let saved = Tracing.save weird_archive in
  check_bool "escaped chrome JSON parses" true
    (Result.is_ok (Json.parse saved));
  check_bool "an access event keeps its Trace Event form" true
    (List.mem
       "    {\"name\": \"R r[1] \\\"quoted\\\"\", \"cat\": \"access\", \"ph\": \
        \"i\", \"ts\": 1, \"pid\": 1, \"tid\": 1, \"s\": \"t\", \"args\": \
        {\"reg\": \"r[1] \\\"quoted\\\"\", \"reg_id\": 7, \"kind\": \"R\"}},"
       (String.split_on_char '\n' saved))

(* --- counterexample tracing through Lincheck --------------------------------- *)

module V = Snapshot.Slot_value.Int
module Naive_c = Snapshot.Collect.Make (V) (Pram.Memory.Sim)

module Spec3 =
  Snapshot.Array_spec.Make
    (V)
    (struct
      let procs = 3
    end)

module Check3 = Lincheck.Make (Spec3)

let collect_program record =
  let t = Naive_c.create ~procs:3 in
  fun pid ->
    let h = Naive_c.attach t (Runtime.Ctx.make ~procs:3 ~pid ()) in
    if pid < 2 then
      ignore
        (record ~pid (`Update (pid, pid + 10)) (fun () ->
             Naive_c.update h (pid + 10);
             `Unit))
    else ignore (record ~pid `Snapshot (fun () -> `View (Naive_c.snapshot h)))

let test_counterexample_trace () =
  (* the injected bug: the naive collect is not linearizable; the
     explorer finds and shrinks a counterexample, and the trace of that
     schedule carries both operation spans and raw accesses *)
  let report =
    Check3.search_check ~way:Pram.Explore.Way.Naive ~procs:3 collect_program
  in
  match report.Pram.Explore.r_counterexample with
  | None -> Alcotest.fail "explorer must find the collect violation"
  | Some cex ->
      let a, history =
        Check3.trace_counterexample ~procs:3 collect_program
          cex.Pram.Explore.cex_shrunk
      in
      let has p = List.exists p a.Tracing.a_events in
      check_bool "has invokes" true
        (has (fun e ->
             match e.Tracing.ev with Tracing.Invoke _ -> true | _ -> false));
      check_bool "has responses" true
        (has (fun e ->
             match e.Tracing.ev with Tracing.Response _ -> true | _ -> false));
      check_bool "has accesses" true
        (has (fun e ->
             match e.Tracing.ev with Tracing.Access _ -> true | _ -> false));
      (* the replayed history is the failing one *)
      check_bool "replayed history is non-linearizable" false
        (Check3.is_linearizable history);
      (* and the trace survives every renderer *)
      (match Tracing.parse (Tracing.save a) with
      | Ok a' -> check_bool "cex archive round-trips" true (a' = a)
      | Error e -> Alcotest.fail ("cex archive invalid: " ^ e));
      check_bool "timeline renders" true
        (String.length (Tracing.timeline a) > 0)

let test_crash_schedule_traced () =
  let a, _ =
    Check3.trace_counterexample ~procs:3 collect_program [ 2; -1; 1; 1; 2; 2 ]
  in
  check_bool "crash event recorded for p0" true
    (List.exists
       (fun e -> e.Tracing.ev = Tracing.Crash && e.Tracing.pid = 0)
       a.Tracing.a_events);
  (* the normalized schedule in the archive still contains the crash *)
  check_bool "schedule keeps the crash action" true
    (List.mem (-1) a.Tracing.a_schedule)

(* --- native domains: Instrument feed ----------------------------------------- *)

let test_instrument_native_domains () =
  let procs = 4 in
  let j = Tracing.Journal.create ~clock:`Monotonic ~procs () in
  let module M =
    Runtime.Instrument
      (Pram.Native.Versioned)
      (struct
        let sink = Runtime.Sink.make ~journal:j ()
      end)
  in
  let regs = Array.init procs (fun _ -> M.create 0) in
  let _ =
    Runtime.run_domains ~procs (fun pid ->
        Tracing.Journal.with_span j ~pid ~op:"work" (fun () ->
            for i = 1 to 25 do
              M.write regs.(pid) i;
              ignore (M.read regs.(pid))
            done))
  in
  let evs = (Tracing.archive j).Tracing.a_events in
  (* every pid contributed its spans and accesses, correctly attributed *)
  for pid = 0 to procs - 1 do
    let mine = List.filter (fun e -> e.Tracing.pid = pid) evs in
    let count p = List.length (List.filter p mine) in
    check_int
      (Printf.sprintf "pid %d accesses" pid)
      50
      (count (fun e ->
           match e.Tracing.ev with Tracing.Access _ -> true | _ -> false));
    check_int
      (Printf.sprintf "pid %d spans" pid)
      1
      (count (fun e ->
           match e.Tracing.ev with Tracing.Invoke _ -> true | _ -> false))
  done;
  (* monotonic timestamps never decrease in journal order *)
  let rec non_decreasing = function
    | a :: (b :: _ as rest) ->
        a.Tracing.time <= b.Tracing.time && non_decreasing rest
    | _ -> true
  in
  check_bool "monotonic clock non-decreasing" true (non_decreasing evs);
  (* a monotonic archive round-trips to the exact nanosecond *)
  match Tracing.parse (Tracing.save (Tracing.archive j)) with
  | Ok a' -> check_bool "native trace round-trips" true (a' = Tracing.archive j)
  | Error e -> Alcotest.fail e

(* --- zero overhead when disabled --------------------------------------------- *)

let scan_access_counts ~journal ~procs =
  (* driver-vs-driver: the driver's own per-pid counts, with and without
     a tracing journal attached. *)
  let j =
    match journal with
    | false -> None
    | true -> Some (Tracing.Journal.create ~procs ())
  in
  let module S = Snapshot.Scan.Make (Semilattice.Int_max) (Pram.Memory.Sim_v) in
  let sink =
    match j with
    | None -> Runtime.Sink.none
    | Some jn -> Runtime.Sink.make ~journal:jn ()
  in
  let program () =
    let t = S.create ~variant:Snapshot.Scan.Optimized ~procs in
    fun pid ->
      let h = S.attach t (Runtime.Ctx.make ~sink ~procs ~pid ()) in
      S.write_l h (pid + 1);
      ignore (S.read_max h)
  in
  let d =
    Pram.Driver.create ?observer:(Runtime.Sink.observer sink) ~procs program
  in
  Pram.Scheduler.run (Pram.Scheduler.round_robin ()) d;
  ( List.init procs (fun pid ->
        (Pram.Driver.reads d pid, Pram.Driver.writes d pid)),
    j )

let test_tracing_adds_zero_accesses () =
  let procs = 3 in
  let off, _ = scan_access_counts ~journal:false ~procs in
  let on_, j = scan_access_counts ~journal:true ~procs in
  check_bool "identical access counts with tracing on and off" true
    (off = on_);
  (* the journal-on run really did trace *)
  (match j with
  | Some j -> check_bool "journal populated" true (Tracing.Journal.length j > 0)
  | None -> Alcotest.fail "journal expected");
  (* and the untraced counts are exactly the Section 6.2 formula: the
     annotation sites fire no accesses *)
  let fr, fw =
    Snapshot.Scan.cost_formula ~procs Snapshot.Scan.Optimized
  in
  List.iter
    (fun (r, w) ->
      (* write_l + read_max = two scans *)
      check_int "reads = 2 scans" (2 * fr) r;
      check_int "writes = 2 scans" (2 * fw) w)
    off

let test_ctx_no_sink_allocates_nothing () =
  (* a context carrying [Sink.none] (the default) must make every
     reporting site free — annotations, spans, causes, and the
     [traced]-guarded [sprintf] of the per-pass hot loops: no bytes
     allocated, no events recorded. *)
  let ctx = Runtime.Ctx.make ~procs:1 ~pid:0 () in
  check_bool "default sink is none" true
    ((not (Runtime.Ctx.traced ctx)) && Runtime.Ctx.telemetry ctx = None);
  let f = ref (fun () -> 0) in
  (f := fun () -> 1);
  let measure g =
    let b0 = Gc.allocated_bytes () in
    g ();
    let b1 = Gc.allocated_bytes () in
    b1 -. b0
  in
  let empty = measure (fun () -> for _ = 0 to 9_999 do () done) in
  let ctx_sites =
    measure (fun () ->
        for i = 0 to 9_999 do
          Runtime.Ctx.annotate ctx "static label";
          ignore (Runtime.Ctx.span ctx ~op:"op" !f);
          Runtime.Ctx.cause ctx ~family:0 Telemetry.Event.Scan_escalation;
          Runtime.Ctx.causes ctx ~family:0 Telemetry.Event.Shard_queue_depth 7;
          if Runtime.Ctx.traced ctx then
            Runtime.Ctx.annotate ctx (Printf.sprintf "pass %d" i)
        done)
  in
  check_bool
    (Printf.sprintf
       "no allocation through a sink-less Ctx (empty loop %.0f, ctx %.0f)"
       empty ctx_sites)
    true (ctx_sites = empty)

let test_store_disabled_telemetry_allocates_nothing () =
  (* The zero-overhead guarantee on the store hot path: the causes
     submit/flush report ([Ctx.cause]/[Ctx.causes] on the handle's
     context) must be free when telemetry is off.  Two measurements: the
     report sites on a sink-less context allocate zero words, and a full
     submit/flush run under [Sink.none] is
     allocation-deterministic and allocates exactly what the same run
     with a live counter grid does — bumping a counter, including the
     per-commit rebuild attribution, allocates nothing either. *)
  let measure g =
    let b0 = Gc.allocated_bytes () in
    g ();
    let b1 = Gc.allocated_bytes () in
    b1 -. b0
  in
  let empty = measure (fun () -> for _ = 0 to 9_999 do () done) in
  let ctx = Runtime.Ctx.make ~procs:1 ~pid:0 () in
  let guards =
    measure (fun () ->
        for _ = 0 to 9_999 do
          Runtime.Ctx.cause ctx ~family:0 Telemetry.Event.Store_batch_fallback;
          Runtime.Ctx.causes ctx ~family:0 Telemetry.Event.Shard_queue_depth 7
        done)
  in
  check_bool
    (Printf.sprintf
       "cause sites without a sink allocate nothing (empty loop %.0f, \
        guards %.0f)"
       empty guards)
    true (guards = empty);
  let module S = Universal.Store.Make (Spec.Counter_spec) (Pram.Memory.Direct_v)
  in
  let script =
    Workload.keyed_counter_script ~seed:7 ~keys:8 ~theta:0.9
      ~read_fraction:0.3 ~ops_per_proc:200
  in
  let ops = script 0 in
  let run sink =
    let t = S.create ~shards:4 ~procs:1 () in
    let h = S.attach t (Runtime.Ctx.make ?sink ~procs:1 ~pid:0 ()) in
    (* flush pending GC bookkeeping (e.g. the one-time adoption of
       terminated domains' allocation stats from earlier test suites)
       so [Gc.allocated_bytes] deltas reflect this run alone *)
    Gc.full_major ();
    measure (fun () ->
        List.iter (fun (key, op) -> S.submit h ~key op) ops;
        ignore (S.flush h))
  in
  ignore (run None) (* warm-up: one-time lazy initialization *);
  let off1 = run None in
  let off2 = run None in
  let on =
    let counters = Telemetry.Counters.create ~families:4 ~procs:1 () in
    run (Some (Runtime.Sink.make ~telemetry:counters ()))
  in
  check_bool
    (Printf.sprintf
       "telemetry-off store runs are allocation-deterministic (%.0f vs %.0f)"
       off1 off2)
    true (off1 = off2);
  check_bool
    (Printf.sprintf
       "telemetry-on store run allocates exactly what the off run does \
        (off %.0f, on %.0f)"
       off1 on)
    true (off1 = on)

let test_adaptive_read_max_allocates_nothing () =
  (* PR 9's end-to-end guarantee: the adaptive scan's uncontended
     [read_max] under [Sink.none] allocates NOTHING — not "nothing
     extra", zero bytes.  Everything it needs lives in the handle
     (scratch epoch/flag rows), the collect accumulates through tail
     recursion, versioned reads hand back the backend's stored
     observation, and the bottom contribution skips the publish, so no
     write (and no [Direct_v] pair) happens either. *)
  let procs = 4 in
  let module S = Snapshot.Scan.Make (Semilattice.Int_max) (Pram.Memory.Direct_v)
  in
  let t = S.create ~variant:Snapshot.Scan.Adaptive ~procs in
  let hs =
    Array.init procs (fun pid ->
        S.attach t (Runtime.Ctx.make ~procs ~pid ()))
  in
  (* a real joined state to collect, and one warm-up read per handle *)
  Array.iteri (fun pid h -> S.write_l h (pid + 1)) hs;
  Array.iter (fun h -> ignore (S.read_max h)) hs;
  let measure g =
    let b0 = Gc.allocated_bytes () in
    g ();
    let b1 = Gc.allocated_bytes () in
    b1 -. b0
  in
  Gc.full_major ();
  let empty = measure (fun () -> for _ = 0 to 9_999 do () done) in
  let reads =
    measure (fun () ->
        for i = 0 to 9_999 do
          ignore (S.read_max hs.(i land 3))
        done)
  in
  check_bool
    (Printf.sprintf
       "uncontended adaptive read_max allocates zero bytes (empty loop %.0f, \
        reads %.0f)"
       empty reads)
    true (reads = empty)

let test_universal_scan_update_allocates_nothing_extra () =
  (* The universal construction's scan/update path (execute = adaptive
     snapshot + publish-only update) under [Sink.none]: the dispatch on
     the attach-time [traced] bit must make the unobserved path
     allocation-deterministic, and never costlier than the same ops with
     a live journal sink (which builds span closures and events). *)
  let procs = 2 in
  let module U =
    Universal.Construction.Make (Spec.Counter_spec) (Pram.Memory.Direct_v)
  in
  let measure g =
    let b0 = Gc.allocated_bytes () in
    g ();
    let b1 = Gc.allocated_bytes () in
    b1 -. b0
  in
  let run sink =
    let t = U.create ~procs () in
    let h = U.attach t (Runtime.Ctx.make ?sink ~procs ~pid:0 ()) in
    Gc.full_major ();
    measure (fun () ->
        for _ = 1 to 100 do
          ignore (U.execute h (Spec.Counter_spec.Inc 1))
        done)
  in
  ignore (run None) (* warm-up: one-time lazy initialization *);
  let off1 = run None in
  let off2 = run None in
  let on =
    let j = Tracing.Journal.create ~procs () in
    run (Some (Runtime.Sink.make ~journal:j ()))
  in
  check_bool
    (Printf.sprintf
       "sink-less universal execute is allocation-deterministic (%.0f vs %.0f)"
       off1 off2)
    true (off1 = off2);
  check_bool
    (Printf.sprintf
       "sink-less universal execute allocates no more than the observed run \
        (off %.0f, on %.0f)"
       off1 on)
    true (off1 <= on)

let () =
  Alcotest.run "tracing"
    [
      ( "journal",
        [
          Alcotest.test_case "basics" `Quick test_journal_basics;
          Alcotest.test_case "span closes on exception" `Quick
            test_with_span_on_exception;
        ] );
      ( "text-format",
        [
          Alcotest.test_case "structural round trip" `Quick
            test_text_roundtrip_structural;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "JSON number grammar" `Quick test_json_numbers;
          Alcotest.test_case "JSON unicode escapes" `Quick test_json_unicode;
        ] );
      ( "simulator",
        [
          Alcotest.test_case "save -> load -> replay is byte-identical"
            `Quick test_sim_replay_byte_identical;
          Alcotest.test_case "observer and spans interleave correctly" `Quick
            test_observer_interleaves_with_spans;
          Alcotest.test_case "chrome JSON parses" `Quick
            test_chrome_archive_validates;
        ] );
      ( "counterexample",
        [
          Alcotest.test_case "naive collect cex traces fully" `Quick
            test_counterexample_trace;
          Alcotest.test_case "crash schedules traced" `Quick
            test_crash_schedule_traced;
        ] );
      ( "native",
        [
          Alcotest.test_case "instrument over domains" `Quick
            test_instrument_native_domains;
        ] );
      ( "zero-overhead",
        [
          Alcotest.test_case "tracing off adds zero accesses" `Quick
            test_tracing_adds_zero_accesses;
          Alcotest.test_case "sink-less Ctx allocates nothing" `Quick
            test_ctx_no_sink_allocates_nothing;
          Alcotest.test_case "store with telemetry off allocates nothing \
                              extra" `Quick
            test_store_disabled_telemetry_allocates_nothing;
          Alcotest.test_case "adaptive read_max allocates zero bytes" `Quick
            test_adaptive_read_max_allocates_nothing;
          Alcotest.test_case "universal scan/update allocates nothing extra"
            `Quick test_universal_scan_update_allocates_nothing_extra;
        ] );
    ]
