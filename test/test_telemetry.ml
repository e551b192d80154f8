(* Telemetry: the counter grid, the windowed sampler, and the
   OpenMetrics exposition.

   The sampler tests drive a manual clock (the simulator story: no real
   time), so windows, deltas and latency quantiles are exact and the
   whole series is checked for determinism by running the same script
   twice.  The counter-attribution test runs on real domains: 8 pids
   bump their own rows concurrently and every cell must come out
   exact — the padded-atomic grid loses nothing.  The wiring tests pin
   how [Runtime] feeds the grid: through [Ctx.cause], and through the
   native seqlock hook that [Runtime.run_domains] installs. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --- events ---------------------------------------------------------------- *)

let test_event_vocabulary () =
  check_int "count = |all|" (List.length Telemetry.Event.all)
    Telemetry.Event.count;
  List.iteri
    (fun i e ->
      check_int
        (Printf.sprintf "index of %s is dense" (Telemetry.Event.name e))
        i (Telemetry.Event.index e);
      match Telemetry.Event.of_name (Telemetry.Event.name e) with
      | Some e' ->
          check_bool "of_name inverts name" true (e = e')
      | None -> Alcotest.failf "of_name %S = None" (Telemetry.Event.name e))
    Telemetry.Event.all;
  check_bool "of_name on garbage" true
    (Telemetry.Event.of_name "no_such_event" = None)

(* --- counters -------------------------------------------------------------- *)

let test_counter_bounds () =
  let c = Telemetry.Counters.create ~families:2 ~procs:3 () in
  check_int "procs" 3 (Telemetry.Counters.procs c);
  check_int "families" 2 (Telemetry.Counters.families c);
  let raises f =
    match f () with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  check_bool "pid out of range raises" true
    (raises (fun () ->
         Telemetry.Counters.record c ~pid:3 ~family:0
           Telemetry.Event.Store_rebuild));
  check_bool "family out of range raises" true
    (raises (fun () ->
         Telemetry.Counters.record c ~pid:0 ~family:2
           Telemetry.Event.Store_rebuild));
  check_bool "negative add raises" true
    (raises (fun () ->
         Telemetry.Counters.add c ~pid:0 ~family:0
           Telemetry.Event.Shard_queue_depth (-1)));
  check_bool "create with procs 0 raises" true
    (raises (fun () -> ignore (Telemetry.Counters.create ~procs:0 ())));
  (* Ctx.cause/causes bump the context pid's cell; a context without a
     grid records nothing *)
  let ctx =
    Runtime.Ctx.make
      ~sink:(Runtime.Sink.make ~telemetry:c ())
      ~procs:3 ~pid:1 ()
  in
  Runtime.Ctx.cause ctx ~family:1 Telemetry.Event.Double_collect_restart;
  Runtime.Ctx.causes ctx ~family:1 Telemetry.Event.Shard_queue_depth 4;
  Runtime.Ctx.cause
    (Runtime.Ctx.make ~procs:1 ~pid:0 ())
    ~family:99 Telemetry.Event.Double_collect_restart;
  check_int "cause recorded" 1
    (Telemetry.Counters.get c ~pid:1 ~family:1
       Telemetry.Event.Double_collect_restart);
  check_int "causes recorded" 4
    (Telemetry.Counters.get c ~pid:1 ~family:1
       Telemetry.Event.Shard_queue_depth)

(* Every pid bumps only its own row, concurrently, with a pid-dependent
   pattern; afterwards every cell, row total, family total and grand
   total must be exact. *)
let test_counter_attribution_8_domains () =
  let procs = 8 and families = 4 in
  let c = Telemetry.Counters.create ~families ~procs () in
  let _ =
    Runtime.run_domains ~procs (fun pid ->
        for _ = 1 to pid + 1 do
          Telemetry.Counters.record c ~pid ~family:(pid mod families)
            Telemetry.Event.Double_collect_restart
        done;
        Telemetry.Counters.add c ~pid ~family:(pid mod families)
          Telemetry.Event.Shard_queue_depth
          (10 * (pid + 1)))
  in
  for pid = 0 to procs - 1 do
    check_int
      (Printf.sprintf "pid %d restarts" pid)
      (pid + 1)
      (Telemetry.Counters.get c ~pid ~family:(pid mod families)
         Telemetry.Event.Double_collect_restart);
    check_int
      (Printf.sprintf "pid %d queue depth" pid)
      (10 * (pid + 1))
      (Telemetry.Counters.get c ~pid ~family:(pid mod families)
         Telemetry.Event.Shard_queue_depth)
  done;
  for family = 0 to families - 1 do
    (* pids [family] and [family + 4] land in this family *)
    let expect = (family + 1) + (family + 5) in
    check_int
      (Printf.sprintf "family %d restarts" family)
      expect
      (Telemetry.Counters.family_total c ~family
         Telemetry.Event.Double_collect_restart)
  done;
  check_int "grand total restarts" 36
    (Telemetry.Counters.total c Telemetry.Event.Double_collect_restart);
  check_int "grand total queue depth" 360
    (Telemetry.Counters.total c Telemetry.Event.Shard_queue_depth);
  let totals = Telemetry.Counters.totals c in
  check_int "totals array agrees" 36
    totals.(Telemetry.Event.index Telemetry.Event.Double_collect_restart);
  check_int "untouched event stays zero" 0
    (Telemetry.Counters.total c Telemetry.Event.Store_rebuild)

(* --- wiring into Runtime ---------------------------------------------------- *)

(* A grid must attribute every pid of the session it rides in: one with
   fewer pids than the context fails at [Ctx.make] (or [run_domains]),
   not silently. *)
let test_ctx_rejects_narrow_grid () =
  let sink =
    Runtime.Sink.make ~telemetry:(Telemetry.Counters.create ~procs:2 ()) ()
  in
  check_bool "Ctx.make with fewer grid pids than procs raises" true
    (match Runtime.Ctx.make ~sink ~procs:3 ~pid:0 () with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check_int "a grid as wide as the session is accepted" 1
    (Runtime.Ctx.pid (Runtime.Ctx.make ~sink ~procs:2 ~pid:1 ()));
  (* the check runs before any domain is spawned *)
  check_bool "run_domains with fewer grid pids than procs raises" true
    (match Runtime.run_domains ~sink ~procs:3 (fun _ -> ()) with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* [Runtime.run_domains] installs the seqlock hook for the run: a retry
   lands in the retrying domain's own pid cell, and once the run is over
   — normally or by a domain's exception — the hook counts nothing. *)
let test_native_hooks_attribute_per_pid () =
  let procs = 3 in
  let c = Telemetry.Counters.create ~procs () in
  let sink = Runtime.Sink.make ~telemetry:c () in
  ignore
    (Runtime.run_domains ~sink ~procs (fun pid ->
         for _ = 0 to pid do
           !Pram.Native.on_seqlock_retry ()
         done));
  for pid = 0 to procs - 1 do
    check_int
      (Printf.sprintf "pid %d seqlock retries" pid)
      (pid + 1)
      (Telemetry.Counters.get c ~pid ~family:0 Telemetry.Event.Seqlock_retry)
  done;
  !Pram.Native.on_seqlock_retry ();
  check_int "the hook is uninstalled after the run" 6
    (Telemetry.Counters.total c Telemetry.Event.Seqlock_retry);
  (* every pid retries once, then the last pid fails *)
  check_bool "run_domains re-raises a domain's exception" true
    (match
       Runtime.run_domains ~sink ~procs (fun pid ->
           !Pram.Native.on_seqlock_retry ();
           if pid = procs - 1 then failwith "last pid fails")
     with
    | _ -> false
    | exception Failure _ -> true);
  !Pram.Native.on_seqlock_retry ();
  check_int "the hook is uninstalled after a failed run" 9
    (Telemetry.Counters.total c Telemetry.Event.Seqlock_retry);
  (* pid 0 fails at once; the others are still running when it does, yet
     the exception arrives only after every domain finished *)
  let finished = Atomic.make 0 in
  (match
     Runtime.run_domains ~procs (fun pid ->
         if pid = 0 then failwith "first pid fails";
         for _ = 1 to 1_000_000 do
           Domain.cpu_relax ()
         done;
         Atomic.incr finished)
   with
  | _ -> Alcotest.fail "run_domains swallowed pid 0's exception"
  | exception Failure _ -> ());
  check_int "every domain is joined before the re-raise" (procs - 1)
    (Atomic.get finished)

(* --- sampler --------------------------------------------------------------- *)

(* One scripted run against a manual clock; returns the finished sampler
   and the counter grid.  Window grid: interval 0.1, epoch 0. *)
let scripted_run () =
  let now = ref 0.0 in
  let c = Telemetry.Counters.create ~families:2 ~procs:1 () in
  let s =
    Telemetry.Sampler.create ~clock:(fun () -> !now) ~interval:0.1
      ~counters:c ()
  in
  (* window 0: ops with latencies 1..100, one restart *)
  now := 0.05;
  for i = 1 to 100 do
    Telemetry.Sampler.observe s ~latency_ns:i
  done;
  Telemetry.Counters.record c ~pid:0 ~family:0
    Telemetry.Event.Double_collect_restart;
  (* window 1: one op, queue depth 7 *)
  now := 0.12;
  Telemetry.Sampler.observe s ~latency_ns:500;
  Telemetry.Counters.add c ~pid:0 ~family:1
    Telemetry.Event.Shard_queue_depth 7;
  (* windows 2 (empty) and 3: close via a tick at 0.35 *)
  now := 0.35;
  Telemetry.Sampler.tick s;
  Telemetry.Counters.record c ~pid:0 ~family:0
    Telemetry.Event.Store_batch_fallback;
  Telemetry.Sampler.finish s;
  (s, c)

let test_sampler_windows () =
  let s, c = scripted_run () in
  let windows = Array.of_list (Telemetry.Sampler.windows s) in
  check_int "window count" 4 (Array.length windows);
  check_int "dropped" 0 (Telemetry.Sampler.dropped s);
  check_int "total ops" 101 (Telemetry.Sampler.total_ops s);
  (* the pooled sample: latencies 1..100 and 500 *)
  (match Telemetry.Sampler.latency s with
  | None -> Alcotest.fail "the run lost its pooled latency stats"
  | Some st ->
      check_int "pooled count" 101 st.Telemetry.Stats.count;
      check_int "pooled p50" 51 st.Telemetry.Stats.p50;
      check_int "pooled p99" 100 st.Telemetry.Stats.p99;
      check_int "pooled max" 500 st.Telemetry.Stats.max);
  Array.iteri
    (fun i (w : Telemetry.Window.t) ->
      check_int (Printf.sprintf "window %d index" i) i w.Telemetry.Window.index;
      check_bool
        (Printf.sprintf "window %d on the interval grid" i)
        true
        (Float.abs (w.Telemetry.Window.t_end -. (0.1 *. float_of_int (i + 1)))
        < 1e-9))
    windows;
  check_int "window 0 ops" 100 windows.(0).Telemetry.Window.ops;
  check_int "window 1 ops" 1 windows.(1).Telemetry.Window.ops;
  check_int "window 2 ops" 0 windows.(2).Telemetry.Window.ops;
  (match windows.(0).Telemetry.Window.latency with
  | None -> Alcotest.fail "window 0 lost its latency stats"
  | Some st ->
      check_int "window 0 p50" 50 st.Telemetry.Stats.p50;
      check_int "window 0 p99" 99 st.Telemetry.Stats.p99;
      check_int "window 0 max" 100 st.Telemetry.Stats.max);
  check_bool "empty window has no latency" true
    (windows.(2).Telemetry.Window.latency = None);
  (* delta/total reconciliation: for every event, the sum of per-window
     deltas equals the grid total at finish *)
  List.iter
    (fun e ->
      let idx = Telemetry.Event.index e in
      let sum =
        Array.fold_left
          (fun a (w : Telemetry.Window.t) ->
            a + w.Telemetry.Window.deltas.(idx))
          0 windows
      in
      check_int
        (Printf.sprintf "deltas of %s reconcile" (Telemetry.Event.name e))
        (Telemetry.Counters.total c e)
        sum)
    Telemetry.Event.all;
  check_int "restart in window 0" 1
    windows.(0).Telemetry.Window.deltas.(Telemetry.Event.index
                                           Telemetry.Event
                                           .Double_collect_restart);
  check_int "queue depth in window 1" 7
    windows.(1).Telemetry.Window.deltas.(Telemetry.Event.index
                                           Telemetry.Event.Shard_queue_depth)

let test_sampler_deterministic () =
  let render (s, _) =
    Format.asprintf "%a@.%a"
      (Format.pp_print_list Telemetry.Window.pp)
      (Telemetry.Sampler.windows s)
      (Format.pp_print_option Telemetry.Stats.pp)
      (Telemetry.Sampler.latency s)
  in
  check_string "same script, same series" (render (scripted_run ()))
    (render (scripted_run ()))

let test_sampler_ring_overflow () =
  let now = ref 0.0 in
  let c = Telemetry.Counters.create ~procs:1 () in
  let s =
    Telemetry.Sampler.create ~clock:(fun () -> !now) ~interval:0.1 ~capacity:2
      ~counters:c ()
  in
  for i = 1 to 10 do
    now := 0.1 *. float_of_int i;
    Telemetry.Sampler.observe s ~latency_ns:1
  done;
  Telemetry.Sampler.finish s;
  let windows = Telemetry.Sampler.windows s in
  check_int "ring keeps capacity windows" 2 (List.length windows);
  check_bool "overflow counted" true (Telemetry.Sampler.dropped s > 0);
  (* the trap the bench validator gates on: dropped windows mean the
     window ops no longer sum to the run total *)
  let sum =
    List.fold_left
      (fun a (w : Telemetry.Window.t) -> a + w.Telemetry.Window.ops)
      0 windows
  in
  check_bool "sum of kept windows undercounts" true
    (sum < Telemetry.Sampler.total_ops s);
  check_bool "the pooled sample keeps dropped windows" true
    (Option.map
       (fun st -> st.Telemetry.Stats.count)
       (Telemetry.Sampler.latency s)
    = Some 10)

let test_sampler_finish_is_final () =
  let now = ref 0.0 in
  let c = Telemetry.Counters.create ~procs:1 () in
  let s =
    Telemetry.Sampler.create ~clock:(fun () -> !now) ~counters:c ()
  in
  Telemetry.Sampler.observe s ~latency_ns:3;
  Telemetry.Sampler.finish s;
  check_int "partial tail closed" 1
    (List.length (Telemetry.Sampler.windows s));
  check_bool "observe after finish raises" true
    (match Telemetry.Sampler.observe s ~latency_ns:1 with
    | () -> false
    | exception Invalid_argument _ -> true);
  check_bool "tick after finish raises" true
    (match Telemetry.Sampler.tick s with
    | () -> false
    | exception Invalid_argument _ -> true)

(* --- openmetrics ----------------------------------------------------------- *)

let test_openmetrics_roundtrip () =
  let sampler, c = scripted_run () in
  let text = Telemetry.Openmetrics.render ~sampler c in
  (match Telemetry.Openmetrics.lint text with
  | Ok n -> check_bool "lint counts samples" true (n > 0)
  | Error e -> Alcotest.failf "lint rejected render output: %s" e);
  match Telemetry.Openmetrics.parse text with
  | Error e -> Alcotest.failf "parse rejected render output: %s" e
  | Ok samples ->
      let find name labels =
        List.find_opt
          (fun s ->
            s.Telemetry.Openmetrics.s_name = name
            && List.for_all
                 (fun kv -> List.mem kv s.Telemetry.Openmetrics.s_labels)
                 labels)
          samples
      in
      (match find "wfa_event_total" [ ("event", "shard_queue_depth") ] with
      | Some s ->
          check_bool "queue-depth total exported" true
            (s.Telemetry.Openmetrics.s_value
            = float_of_int
                (Telemetry.Counters.total c Telemetry.Event.Shard_queue_depth))
      | None -> Alcotest.fail "no shard_queue_depth total sample");
      (match find "wfa_window_ops" [ ("window", "0") ] with
      | Some s ->
          check_bool "window 0 ops exported" true
            (s.Telemetry.Openmetrics.s_value = 100.0)
      | None -> Alcotest.fail "no wfa_window_ops{window=0} sample");
      (* every event class is always present, even at zero *)
      List.iter
        (fun e ->
          check_bool
            (Printf.sprintf "event %s always exported"
               (Telemetry.Event.name e))
            true
            (find "wfa_event_total" [ ("event", Telemetry.Event.name e) ]
            <> None))
        Telemetry.Event.all

let test_openmetrics_lint_rejects () =
  let _, c = scripted_run () in
  let text = Telemetry.Openmetrics.render c in
  let expect_error label t =
    match Telemetry.Openmetrics.lint t with
    | Ok _ -> Alcotest.failf "%s accepted" label
    | Error _ -> ()
  in
  (* strip the EOF terminator *)
  let no_eof =
    String.concat "\n"
      (List.filter
         (fun l -> l <> "# EOF")
         (String.split_on_char '\n' text))
  in
  expect_error "missing # EOF" no_eof;
  (* a sample whose family was never declared *)
  let undeclared =
    String.concat "\n"
      (List.map
         (fun l -> if l = "# EOF" then "bogus_metric 1\n# EOF" else l)
         (String.split_on_char '\n' text))
  in
  expect_error "undeclared family" undeclared;
  (* duplicate (name, labels) *)
  let dup =
    String.concat "\n"
      (List.map
         (fun l ->
           if l = "# EOF" then
             "wfa_event_total{event=\"store_rebuild\"} 0\n\
              wfa_event_total{event=\"store_rebuild\"} 0\n\
              # EOF"
           else l)
         (String.split_on_char '\n' text))
  in
  expect_error "duplicate sample" dup;
  expect_error "garbage" "not a metric line\n# EOF\n"

let () =
  Alcotest.run "telemetry"
    [
      ( "events",
        [ Alcotest.test_case "closed vocabulary" `Quick test_event_vocabulary ]
      );
      ( "counters",
        [
          Alcotest.test_case "bounds and guards" `Quick test_counter_bounds;
          Alcotest.test_case "attribution exact under 8 domains" `Quick
            test_counter_attribution_8_domains;
        ] );
      ( "wiring",
        [
          Alcotest.test_case "Ctx.make rejects a narrow grid" `Quick
            test_ctx_rejects_narrow_grid;
          Alcotest.test_case "native hooks attribute per pid" `Quick
            test_native_hooks_attribute_per_pid;
        ] );
      ( "sampler",
        [
          Alcotest.test_case "windows, deltas, reconciliation" `Quick
            test_sampler_windows;
          Alcotest.test_case "deterministic under a manual clock" `Quick
            test_sampler_deterministic;
          Alcotest.test_case "ring overflow drops and counts" `Quick
            test_sampler_ring_overflow;
          Alcotest.test_case "finish closes and finalizes" `Quick
            test_sampler_finish_is_final;
        ] );
      ( "openmetrics",
        [
          Alcotest.test_case "render -> parse -> lint round trip" `Quick
            test_openmetrics_roundtrip;
          Alcotest.test_case "lint rejects malformed expositions" `Quick
            test_openmetrics_lint_rejects;
        ] );
    ]
