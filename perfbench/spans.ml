(* Spans of one traced trial: one per public [Store] call the benchmark
   makes, plus the GC phases the runtime reports through the stdlib
   [runtime_events] library.  Both live in arrays preallocated before the
   trial, and are written out once it ends.

   A store span records its kind, the logical process that made the
   call, the turn or op that caused it, and its start and end on the
   monotonic clock.  GC phases nest inside one another on a single
   domain, so only the outermost ones are kept; a GC interval inside a
   store span is that span's child, and the span's self time is its
   duration minus the GC time it covers.  [runtime_events] stamps events
   with the same CLOCK_MONOTONIC nanoseconds as [Monotonic_clock.now]. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let kinds = [| "submit"; "flush"; "execute"; "query" |]
let submit = 0
let flush = 1
let execute = 2
let query = 3

type t = {
  kind : int array;
  pid : int array;
  cause : int array;
  start : int array;
  stop : int array;
  mutable n : int;
  gc_start : int array;
  gc_stop : int array;
  mutable gc_n : int;
  mutable gc_depth : int;
  mutable gc_open : int;
  mutable lost_events : int;
      (* events the ring overwrote before a poll, plus GC intervals that
         did not fit the buffer *)
  poll_words : float array;
      (* minor words the GC-event polls allocated, so the traced run can
         report the store's allocation alone *)
}

let create ~spans ~gc =
  {
    kind = Array.make spans 0;
    pid = Array.make spans 0;
    cause = Array.make spans 0;
    start = Array.make spans 0;
    stop = Array.make spans 0;
    n = 0;
    gc_start = Array.make gc 0;
    gc_stop = Array.make gc 0;
    gc_n = 0;
    gc_depth = 0;
    gc_open = 0;
    lost_events = 0;
    poll_words = [| 0.0 |];
  }

let clear t =
  t.n <- 0;
  t.gc_n <- 0;
  t.gc_depth <- 0;
  t.lost_events <- 0;
  t.poll_words.(0) <- 0.0

(* [enter] returns the span's slot; [leave] closes it.  Logical processes
   interleave inside one domain under the simulator, so spans of
   different processes may overlap; each closes its own slot. *)
let enter t ~kind ~pid ~cause =
  let i = t.n in
  if i >= Array.length t.kind then failwith "Spans.enter: span buffer full";
  t.n <- i + 1;
  t.kind.(i) <- kind;
  t.pid.(i) <- pid;
  t.cause.(i) <- cause;
  t.start.(i) <- now_ns ();
  i

let leave t i = t.stop.(i) <- now_ns ()

(* --- GC phases from runtime_events --------------------------------------- *)

let ts_ns ts = Int64.to_int (Runtime_events.Timestamp.to_int64 ts)

let callbacks t =
  let runtime_begin _domain ts _phase =
    if t.gc_depth = 0 then t.gc_open <- ts_ns ts;
    t.gc_depth <- t.gc_depth + 1
  in
  let runtime_end _domain ts _phase =
    if t.gc_depth > 0 then begin
      t.gc_depth <- t.gc_depth - 1;
      if t.gc_depth = 0 then
        if t.gc_n < Array.length t.gc_start then begin
          t.gc_start.(t.gc_n) <- t.gc_open;
          t.gc_stop.(t.gc_n) <- ts_ns ts;
          t.gc_n <- t.gc_n + 1
        end
        else t.lost_events <- t.lost_events + 1
    end
  in
  let lost_events _domain n = t.lost_events <- t.lost_events + n in
  Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ~lost_events ()

type source = { cursor : Runtime_events.cursor; cb : Runtime_events.Callbacks.t }

(* Starts the runtime's event ring for this process (a file-backed ring
   in OCAML_RUNTIME_EVENTS_DIR, removed at exit) and opens a cursor on
   it.  [Runtime_events.pause] keeps untraced trials free of it. *)
let source t =
  Runtime_events.start ();
  let cursor = Runtime_events.create_cursor None in
  { cursor; cb = callbacks t }

let poll t src =
  let before = Gc.minor_words () in
  ignore (Runtime_events.read_poll src.cursor src.cb None : int);
  t.poll_words.(0) <- t.poll_words.(0) +. (Gc.minor_words () -. before)

(* Drains the events of everything before the measured phase, then
   empties the buffers for it. *)
let restart t src =
  poll t src;
  clear t

(* --- summaries ----------------------------------------------------------- *)

(* GC time overlapping [lo, hi]; GC intervals are disjoint and in time
   order, so a binary search finds the first candidate. *)
let gc_overlap t ~lo ~hi =
  let a = ref 0 and b = ref t.gc_n in
  while !a < !b do
    let m = (!a + !b) / 2 in
    if t.gc_stop.(m) <= lo then a := m + 1 else b := m
  done;
  let acc = ref 0 and i = ref !a in
  while !i < t.gc_n && t.gc_start.(!i) < hi do
    acc := !acc + (min hi t.gc_stop.(!i) - max lo t.gc_start.(!i));
    incr i
  done;
  !acc

type summary = {
  busy_ns : int;  (** summed store-span durations *)
  self_ns : int;  (** busy minus the GC time inside the spans *)
  gc_ns : int;  (** GC time inside [lo, hi] *)
  calls : int;
}

let summary t ~lo ~hi =
  let busy = ref 0 and gc_in = ref 0 in
  for i = 0 to t.n - 1 do
    busy := !busy + (t.stop.(i) - t.start.(i));
    gc_in := !gc_in + gc_overlap t ~lo:t.start.(i) ~hi:t.stop.(i)
  done;
  { busy_ns = !busy; self_ns = !busy - !gc_in; gc_ns = gc_overlap t ~lo ~hi; calls = t.n }

(* The store span a GC interval ran inside, if any: the latest-started
   span that contains it.  Span starts are in time order; on the native
   workloads spans are disjoint, so the last span starting before the
   interval is the only candidate.  Under the simulator up to [procs]
   spans overlap, so a few more are tried. *)
let parent_of t ~gc_lo ~gc_hi =
  let a = ref 0 and b = ref t.n in
  while !a < !b do
    let m = (!a + !b) / 2 in
    if t.start.(m) <= gc_lo then a := m + 1 else b := m
  done;
  let rec back i tries =
    if i < 0 || tries = 0 then -1
    else if gc_hi <= t.stop.(i) then i
    else back (i - 1) (tries - 1)
  in
  back (!a - 1) 16

(* Chrome trace-event JSON (loadable in Perfetto): store spans on one
   track per logical process, GC phases on the track of the span they
   ran inside, times in microseconds from [origin]. *)
let write_chrome t ~origin ~path =
  let oc = open_out path in
  let us ns = float_of_int (ns - origin) /. 1000.0 in
  output_string oc "{\"traceEvents\":[\n";
  let first = ref true in
  let sep () = if !first then first := false else output_string oc ",\n" in
  for i = 0 to t.n - 1 do
    sep ();
    Printf.fprintf oc
      "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%d,\"cause\":%d}}"
      kinds.(t.kind.(i)) t.pid.(i) (us t.start.(i))
      (float_of_int (t.stop.(i) - t.start.(i)) /. 1000.0)
      i t.cause.(i)
  done;
  for g = 0 to t.gc_n - 1 do
    let lo = t.gc_start.(g) and hi = t.gc_stop.(g) in
    if lo >= origin then begin
      let p = parent_of t ~gc_lo:lo ~gc_hi:hi in
      sep ();
      Printf.fprintf oc
        "{\"name\":\"gc\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"parent\":%d}}"
        (if p >= 0 then t.pid.(p) else -1)
        (us lo)
        (float_of_int (hi - lo) /. 1000.0)
        p
    end
  done;
  output_string oc "\n]}\n";
  close_out oc
