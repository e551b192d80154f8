(* The keyed-store benchmark: closed-loop workloads over
   [Universal.Store], each a fixed, seeded op stream that starts from a
   seeded prefill, driven from one domain.  Every response is checked.
   README.md says why each workload exists and which per-layer metric
   should move on which of them.

   One run repeats trials of its workload until [--seconds] are spent.
   A trial builds a fresh store, so every trial does the same work: the
   per-op cost of the store grows with its history, and a run defined by
   a duration would measure a different store each time.  End-to-end
   figures are medians over trials (latency percentiles over the pooled
   samples of all trials).  [--trace 1] runs the same trials over a
   counting instantiation of the store and reports per-layer figures.

   The last line of standard output is the result object; the line
   before it stamps the run (cores, compiler, commit, sample counts). *)

module C = Spec.Counter_spec

let now_ns = Spans.now_ns

(* --- workloads ------------------------------------------------------------- *)

type shape =
  | Batched_turns of { batch : int }
      (** round-robin turns: [batch] submits then one flush *)
  | Interleaved  (** native, one op at a time, pid = op index mod procs *)
  | Simulated  (** [Pram.Memory.Sim_v] under a seeded random scheduler *)

type workload = {
  name : string;
  shape : shape;
  procs : int;
  keys : int;
  theta : float;
  read_fraction : float;
  prefill_ops : int;
  measured_ops : int;
      (* both multiples of [procs], and of the batch for batched turns *)
}

let workloads =
  [
    {
      name = "store-hot-batched";
      shape = Batched_turns { batch = 64 };
      procs = 4;
      keys = 64;
      theta = 0.99;
      read_fraction = 0.10;
      prefill_ops = 8192;
      measured_ops = 16384;
    };
    {
      name = "store-uniform-rw";
      shape = Interleaved;
      procs = 4;
      keys = 4096;
      theta = 0.0;
      read_fraction = 0.5;
      prefill_ops = 4096;
      measured_ops = 8192;
    };
    {
      name = "store-sim-contended";
      shape = Simulated;
      procs = 8;
      keys = 1024;
      theta = 0.99;
      read_fraction = 0.2;
      prefill_ops = 2048;
      measured_ops = 4096;
    };
  ]

let shards = 8

(* --- seeded op streams ----------------------------------------------------- *)

(* One stream of [n] ops: key ranks drawn from the workload's zipf law,
   reads with probability [read_fraction], otherwise the commuting
   mutators batching folds (Inc 1..5, or Dec 1..5 one time in four). *)
type stream = { key : int array; op : C.operation array }

let stream w ~seed ~salt n =
  let st = Random.State.make [| seed; salt; n |] in
  let z = Workload.Zipf.make ~keys:w.keys ~theta:w.theta in
  let key = Array.make n 0 and op = Array.make n C.Read in
  for i = 0 to n - 1 do
    key.(i) <- Workload.Zipf.sample z st;
    if Random.State.float st 1.0 >= w.read_fraction then
      op.(i) <-
        (if Random.State.int st 4 = 0 then C.Dec (1 + Random.State.int st 5)
         else C.Inc (1 + Random.State.int st 5))
  done;
  { key; op }

let digest s =
  let b = Buffer.create (Array.length s.key * 8) in
  Array.iteri
    (fun i k ->
      Buffer.add_string b (string_of_int k);
      Buffer.add_string b (Format.asprintf "%a;" C.pp_operation s.op.(i)))
    s.key;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The sequential per-key model every response is checked against. *)
let apply model k = function
  | C.Inc n -> model.(k) <- model.(k) + n
  | C.Dec n -> model.(k) <- model.(k) - n
  | C.Reset n -> model.(k) <- n
  | C.Read -> ()

(* Applies [op] to the model and says whether [r] is the model's
   response.  It allocates nothing, so checking adds no allocation to
   the measured phase. *)
let check model k op r =
  apply model k op;
  match (op, r) with
  | C.Read, C.Value v -> v = model.(k)
  | (C.Inc _ | C.Dec _ | C.Reset _), C.Unit -> true
  | _ -> false

(* --- the store as the benchmark sees it ------------------------------------ *)

module type STORE = sig
  type t
  type handle

  type stats = {
    ops : int;
    entries : int;
    batched_ops : int;
    largest_batch : int;
    fallbacks : int;
    spec_replays : int;
    rebuilds : int;
  }

  val create : ?shards:int -> procs:int -> unit -> t

  val attach :
    ?mode:Universal.Store.mode ->
    ?batching:Universal.Store.batching ->
    ?variant:Snapshot.Scan.variant ->
    t ->
    Runtime.Ctx.t ->
    handle

  val execute : handle -> key:string -> C.operation -> C.response
  val submit : handle -> key:string -> C.operation -> unit
  val flush : handle -> (string * C.response list) list
  val query : handle -> key:string -> C.operation -> C.response
  val graph_entries : handle -> int
  val stats : handle -> stats
end

module Counted_counter = Probe.Spec (C)
module Plain_native = Universal.Store.Make (C) (Pram.Native.Versioned)

module Traced_native =
  Universal.Store.Make (Counted_counter) (Probe.Mem (Pram.Native.Versioned))

module Plain_sim = Universal.Store.Make (C) (Pram.Memory.Sim_v)

module Traced_sim =
  Universal.Store.Make (Counted_counter) (Probe.Mem (Pram.Memory.Sim_v))

(* --- per-trial results ----------------------------------------------------- *)

(* Measured-phase deltas of everything the traced run counts. *)
type layers = {
  l_entries : int;
  l_batched_ops : int;
  l_fallbacks : int;
  l_spec_replays : int;
  l_rebuilds : int;
  l_fallback_events : int;
  l_rebuild_events : int;
  l_escalations : int;
  l_commutes : int;
  l_applies : int;
  l_reads_only : int;
  l_mem_reads : int;
  l_mem_writes : int;
  l_steps : int;
  l_history : int;
  l_minor_words : float;
  l_promoted_words : float;
  l_major_collections : int;
  l_busy_ns : int;
  l_self_ns : int;
  l_gc_ns : int;
  l_calls : int;
  l_lost_events : int;
}

type trial = {
  ops : int;  (** store ops in the measured phase *)
  wall_ns : int;  (** measured phase *)
  setup_ns : int;
  heap_words : int;
  attempted : int;
  failed : int;
  samples : int;  (** latency samples written to [lat] *)
  minor_words : float;  (** allocated in the measured phase *)
  layers : layers option;
}

(* Latency samples of the current trial, in ns.  Allocated once, before
   any trial, so the timed loop writes into it without allocating, and
   it is part of the heap baseline rather than of the store's heap. *)
let lat = Array.make (List.fold_left (fun m w -> max m w.measured_ops) 0 workloads) 0

let key_names =
  Array.init (List.fold_left (fun m w -> max m w.keys) 0 workloads) Workload.key_name

type tracer = { spans : Spans.t; src : Spans.source }

let span_enter tr ~kind ~pid ~cause =
  match tr with None -> 0 | Some t -> Spans.enter t.spans ~kind ~pid ~cause

let span_leave tr i =
  match tr with
  | None -> ()
  | Some t ->
      Spans.leave t.spans i;
      Spans.poll t.spans t.src

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* Counter snapshots taken around the measured phase of a traced trial. *)
type marks = {
  m_stats : int array;  (** entries, batched, fallbacks, replays, rebuilds *)
  m_events : int array;
  m_probe : int array;
  m_promoted : float;
  m_major : int;
}

let probe_counts () =
  Probe.Count.[| !commutes; !apply; !reads_only; !reads; !writes |]

let marks (type h) (module S : STORE with type handle = h) (hs : h array) tel =
  let st = Array.make 5 0 in
  Array.iter
    (fun h ->
      let s = S.stats h in
      st.(0) <- st.(0) + s.S.entries;
      st.(1) <- st.(1) + s.S.batched_ops;
      st.(2) <- st.(2) + s.S.fallbacks;
      st.(3) <- st.(3) + s.S.spec_replays;
      st.(4) <- st.(4) + s.S.rebuilds)
    hs;
  let g = Gc.quick_stat () in
  {
    m_stats = st;
    m_events =
      (match tel with
      | None -> [||]
      | Some c -> Telemetry.Counters.totals c);
    m_probe = probe_counts ();
    m_promoted = g.Gc.promoted_words;
    m_major = g.Gc.major_collections;
  }

(* [minor_words] is the [Gc.minor_words] delta of the measured phase:
   [Gc.quick_stat] only counts the minor heap up to the last minor
   collection, which is off by up to a minor heap per trial. *)
let layers_of ~before ~after ~tr ~tel ~steps ~history ~minor_words ~lo ~hi =
  let d i = after.m_stats.(i) - before.m_stats.(i) in
  let ev e =
    match tel with
    | None -> 0
    | Some _ ->
        let i = Telemetry.Event.index e in
        after.m_events.(i) - before.m_events.(i)
  in
  let p i = after.m_probe.(i) - before.m_probe.(i) in
  let sp = tr.spans in
  let s = Spans.summary sp ~lo ~hi in
  {
    l_entries = d 0;
    l_batched_ops = d 1;
    l_fallbacks = d 2;
    l_spec_replays = d 3;
    l_rebuilds = d 4;
    l_fallback_events = ev Telemetry.Event.Store_batch_fallback;
    l_rebuild_events = ev Telemetry.Event.Store_rebuild;
    l_escalations = ev Telemetry.Event.Scan_escalation;
    l_commutes = p 0;
    l_applies = p 1;
    l_reads_only = p 2;
    l_mem_reads = p 3;
    l_mem_writes = p 4;
    l_steps = steps;
    l_history = history;
    l_minor_words = minor_words -. sp.Spans.poll_words.(0);
    l_promoted_words = after.m_promoted -. before.m_promoted;
    l_major_collections = after.m_major - before.m_major;
    l_busy_ns = s.Spans.busy_ns;
    l_self_ns = s.Spans.self_ns;
    l_gc_ns = s.Spans.gc_ns;
    l_calls = s.Spans.calls;
    l_lost_events = sp.Spans.lost_events;
  }

(* One handle per logical process, all sharing one sink: the telemetry
   counters on a traced trial, nothing otherwise. *)
let attach_all (type t h) (module S : STORE with type t = t and type handle = h)
    (store : t) ~procs ~batching tel : h array =
  let sink =
    match tel with
    | None -> Runtime.Sink.none
    | Some c -> Runtime.Sink.make ~telemetry:c ()
  in
  Array.map (fun ctx -> S.attach ~batching store ctx) (Runtime.Ctx.family ~sink ~procs ())

(* The measured phase of a trial: [run ()] on the monotonic clock,
   returning its failed ops and simulator steps.  A traced trial is
   bracketed by counter snapshots, and [history ()] is read once
   counting has stopped. *)
let measure (type h) (module S : STORE with type handle = h) (hs : h array)
    ~tr ~tel ~history run =
  let before =
    Option.map
      (fun t ->
        Spans.restart t.spans t.src;
        marks (module S) hs tel)
      tr
  in
  let w0 = Gc.minor_words () in
  let m0 = now_ns () in
  let failed, steps = run () in
  let m1 = now_ns () in
  let minor_words = Gc.minor_words () -. w0 in
  let layers =
    match (tr, before) with
    | Some t, Some before ->
        Spans.poll t.spans t.src;
        let after = marks (module S) hs tel in
        Some
          (layers_of ~before ~after ~tr:t ~tel ~steps ~history:(history ())
             ~minor_words ~lo:m0 ~hi:m1)
    | _ -> None
  in
  (failed, m1 - m0, minor_words, layers)

(* --- native workloads ------------------------------------------------------ *)

module Native (S : STORE) = struct
  (* Turn [t] of a batched stream covers ops [t*batch, (t+1)*batch) and
     belongs to process [t mod procs].  The flush returns keys in
     first-submit order, each with its responses in submission order.
     [chains] precomputes that order for every turn, before the store is
     built: [firsts] lists each turn's first op per key, in submission
     order, and [next] links each op to the turn's next op on its key. *)
  type chains = { firsts : int array; nfirsts : int array; next : int array }

  let chains w ~batch (s : stream) =
    let n = Array.length s.key in
    let firsts = Array.make n 0 and nfirsts = Array.make (n / batch) 0 in
    let next = Array.make n (-1) and last_of = Array.make w.keys (-1) in
    for t = 0 to (n / batch) - 1 do
      let base = t * batch in
      for i = base to base + batch - 1 do
        let k = s.key.(i) in
        if last_of.(k) < base then begin
          firsts.(base + nfirsts.(t)) <- i;
          nfirsts.(t) <- nfirsts.(t) + 1
        end
        else next.(last_of.(k)) <- i;
        last_of.(k) <- i
      done
    done;
    { firsts; nfirsts; next }

  let run_turns ~batch (s : stream) c ~model ~first_turn hs ~tr ~record =
    let procs = Array.length hs in
    let failed = ref 0 in
    for t = 0 to (Array.length s.key / batch) - 1 do
      let base = t * batch in
      let turn = first_turn + t in
      let pid = turn mod procs in
      let h = hs.(pid) in
      let t0 = now_ns () in
      let resps =
        try
          for i = base to base + batch - 1 do
            let sp = span_enter tr ~kind:Spans.submit ~pid ~cause:turn in
            S.submit h ~key:key_names.(s.key.(i)) s.op.(i);
            span_leave tr sp
          done;
          let sp = span_enter tr ~kind:Spans.flush ~pid ~cause:turn in
          let r = S.flush h in
          span_leave tr sp;
          r
        with _ -> []
      in
      let t1 = now_ns () in
      if record then lat.(t) <- t1 - t0;
      let checked = ref 0 in
      let rec responses i k = function
        | r :: rest when i >= 0 ->
            incr checked;
            if not (check model k s.op.(i) r) then incr failed;
            responses c.next.(i) k rest
        | _ -> ()
      in
      let rec keys j = function
        | (key, rs) :: rest when j < c.nfirsts.(t) ->
            let i = c.firsts.(base + j) in
            let k = s.key.(i) in
            if String.equal key key_names.(k) then responses i k rs;
            keys (j + 1) rest
        | _ -> ()
      in
      keys 0 resps;
      (* a missing or surplus response fails the op it belongs to *)
      failed := !failed + (batch - !checked)
    done;
    !failed

  let run_interleaved (s : stream) ~model hs ~tr ~record =
    let procs = Array.length hs in
    let failed = ref 0 in
    for i = 0 to Array.length s.key - 1 do
      let pid = i mod procs in
      let k = s.key.(i) in
      let op = s.op.(i) in
      let t0 = now_ns () in
      let ok =
        try
          match op with
          | C.Read ->
              let sp = span_enter tr ~kind:Spans.query ~pid ~cause:i in
              let r = S.query hs.(pid) ~key:key_names.(k) op in
              span_leave tr sp;
              check model k op r
          | _ ->
              let sp = span_enter tr ~kind:Spans.execute ~pid ~cause:i in
              let r = S.execute hs.(pid) ~key:key_names.(k) op in
              span_leave tr sp;
              check model k op r
        with _ -> false
      in
      let t1 = now_ns () in
      if record then lat.(i) <- t1 - t0;
      if not ok then incr failed
    done;
    !failed

  (* Everything but the heap figure; the store and its handles are
     returned so the caller can weigh them with nothing else alive. *)
  let phases w ~seed ~tr ~tel =
    let prefill = stream w ~seed ~salt:1 w.prefill_ops in
    let measured = stream w ~seed ~salt:2 w.measured_ops in
    let model = Array.make w.keys 0 in
    let batching, run_prefill, run_measured =
      match w.shape with
      | Batched_turns { batch } ->
          let cp = chains w ~batch prefill and cm = chains w ~batch measured in
          ( Universal.Store.Batched batch,
            run_turns ~batch prefill cp ~model ~first_turn:0,
            run_turns ~batch measured cm ~model
              ~first_turn:(w.prefill_ops / batch) )
      | Interleaved | Simulated ->
          ( Universal.Store.Unbatched,
            run_interleaved prefill ~model,
            run_interleaved measured ~model )
    in
    let t0 = now_ns () in
    let store = S.create ~shards ~procs:w.procs () in
    let hs = attach_all (module S) store ~procs:w.procs ~batching tel in
    let f0 = run_prefill hs ~tr:None ~record:false in
    let t1 = now_ns () in
    let f1, wall_ns, minor_words, layers =
      measure (module S) hs ~tr ~tel
        ~history:(fun () -> S.graph_entries hs.(0))
        (fun () -> (run_measured hs ~tr ~record:true, 0))
    in
    let samples =
      match w.shape with
      | Batched_turns { batch } -> w.measured_ops / batch
      | Interleaved | Simulated -> w.measured_ops
    in
    ( (store, hs),
      {
        ops = w.measured_ops;
        wall_ns;
        setup_ns = t1 - t0;
        heap_words = 0;
        attempted = w.prefill_ops + w.measured_ops;
        failed = f0 + f1;
        samples;
        minor_words;
        layers;
      } )
end

(* --- the simulated workload ------------------------------------------------ *)

module Simulated (S : STORE) = struct
  (* Process [p]'s ops are [p*per, (p+1)*per) of the stream.  Responses
     under an adversarial interleaving have no single sequential order
     to check them against, so each is checked for its shape, and the
     final value of every key is checked against the fold of all
     scripts afterwards. *)
  let body hs (s : stream) ~per ~tr ~record ~failed pid =
    let h = hs.(pid) in
    for j = 0 to per - 1 do
      let i = (pid * per) + j in
      let op = s.op.(i) in
      let key = key_names.(s.key.(i)) in
      let t0 = now_ns () in
      let ok =
        try
          match op with
          | C.Read -> (
              let sp = span_enter tr ~kind:Spans.query ~pid ~cause:i in
              let r = S.query h ~key op in
              span_leave tr sp;
              match r with C.Value _ -> true | C.Unit -> false)
          | _ ->
              let sp = span_enter tr ~kind:Spans.execute ~pid ~cause:i in
              let r = S.execute h ~key op in
              span_leave tr sp;
              C.equal_response r C.Unit
        with _ -> false
      in
      let t1 = now_ns () in
      if record then lat.(i) <- t1 - t0;
      if not ok then failed.(pid) <- failed.(pid) + 1
    done

  let drive ~procs ~seed f =
    let d = Pram.Driver.create ~procs (fun () -> f) in
    Pram.Scheduler.run ~max_steps:max_int (Pram.Scheduler.random ~seed ()) d;
    Pram.Driver.total_steps d

  let phases w ~seed ~tr ~tel =
    let procs = w.procs in
    let prefill = stream w ~seed ~salt:1 w.prefill_ops in
    let measured = stream w ~seed ~salt:2 w.measured_ops in
    let failed = Array.make procs 0 in
    let t0 = now_ns () in
    let store = S.create ~shards ~procs () in
    let hs =
      attach_all (module S) store ~procs ~batching:Universal.Store.Unbatched tel
    in
    ignore
      (drive ~procs ~seed:(seed + 1)
         (body hs prefill ~per:(w.prefill_ops / procs) ~tr:None ~record:false
            ~failed));
    let t1 = now_ns () in
    let (), wall_ns, minor_words, layers =
      measure (module S) hs ~tr ~tel
        ~history:(fun () ->
          (* reading the graph is shared-memory work: it runs under a driver *)
          let history = ref 0 in
          ignore
            (drive ~procs ~seed (fun pid ->
                 if pid = 0 then history := S.graph_entries hs.(0)));
          !history)
        (fun () ->
          ( (),
            drive ~procs ~seed:(seed + 2)
              (body hs measured ~per:(w.measured_ops / procs) ~tr ~record:true
                 ~failed) ))
    in
    (* the fold of both streams, read back by process 0 *)
    let model = Array.make w.keys 0 in
    List.iter
      (fun s -> Array.iteri (fun i k -> apply model k s.op.(i)) s.key)
      [ prefill; measured ];
    let wrong = ref 0 in
    ignore
      (drive ~procs ~seed
         (fun pid ->
           if pid = 0 then
             for k = 0 to w.keys - 1 do
               match S.query hs.(0) ~key:key_names.(k) C.Read with
               | C.Value v when v = model.(k) -> ()
               | _ | (exception _) -> incr wrong
             done));
    ( (store, hs),
      {
        ops = w.measured_ops;
        wall_ns;
        setup_ns = t1 - t0;
        heap_words = 0;
        attempted = w.prefill_ops + w.measured_ops + w.keys;
        failed = Array.fold_left ( + ) !wrong failed;
        samples = w.measured_ops;
        minor_words;
        layers;
      } )
end

module Plain_native_run = Native (Plain_native)
module Traced_native_run = Native (Traced_native)
module Plain_sim_run = Simulated (Plain_sim)
module Traced_sim_run = Simulated (Traced_sim)

(* What a trial keeps alive while the heap is read: its store and
   handles, whatever the store module. *)
type kept = Kept : 'a -> kept

(* One trial, weighed: the op streams, the latency buffer and the sim
   driver are out of reach when the heap is read, so only the store and
   its handles count. *)
let trial w ~seed ~tr =
  let base = live_words () in
  let tel =
    match tr with
    | None -> None
    | Some _ -> Some (Telemetry.Counters.create ~families:shards ~procs:w.procs ())
  in
  let keep, r =
    match (w.shape, tr) with
    | (Batched_turns _ | Interleaved), None ->
        let k, r = Plain_native_run.phases w ~seed ~tr ~tel in
        (Kept k, r)
    | (Batched_turns _ | Interleaved), Some _ ->
        let k, r = Traced_native_run.phases w ~seed ~tr ~tel in
        (Kept k, r)
    | Simulated, None ->
        let k, r = Plain_sim_run.phases w ~seed ~tr ~tel in
        (Kept k, r)
    | Simulated, Some _ ->
        let k, r = Traced_sim_run.phases w ~seed ~tr ~tel in
        (Kept k, r)
  in
  let heap = live_words () - base in
  ignore (Sys.opaque_identity keep);
  { r with heap_words = heap }

(* --- a run: trials until the time is spent --------------------------------- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest rank: the smallest sample with at least [q] of all samples at
   or below it; [beyond] is how many samples lie above that rank. *)
let percentile sorted q =
  let n = Array.length sorted in
  let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
  (sorted.(rank - 1), n - rank)

type pool = { mutable data : int array; mutable len : int }

let pool_add p n =
  if p.len + n > Array.length p.data then begin
    let d = Array.make (max (2 * Array.length p.data) (p.len + n)) 0 in
    Array.blit p.data 0 d 0 p.len;
    p.data <- d
  end;
  Array.blit lat 0 p.data p.len n;
  p.len <- p.len + n

let ops_per_s r = float_of_int r.ops /. (float_of_int r.wall_ns /. 1e9)

(* Runs [warmup] once, then repeats [step] until [seconds] are spent in
   all, stopping early rather than overrunning by more than the longest
   step so far.  The warm-up trial is not reported: it pays for the lazy
   set-up of the first trial in a process (which also leaves a few words
   on the heap for good). *)
let repeat ~seconds ~warmup step =
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let t0 = now_ns () in
  warmup ();
  let longest = ref (now_ns () - t0) in
  let rec go acc =
    let t0 = now_ns () in
    let acc = step () :: acc in
    longest := max !longest (now_ns () - t0);
    if now_ns () + !longest > deadline then List.rev acc else go acc
  in
  go []

(* --- output ---------------------------------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' | '\\' -> Buffer.add_char b '\\'; Buffer.add_char b c
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let json_num x = if Float.is_integer x then Printf.sprintf "%.1f" x else Printf.sprintf "%.17g" x
let json_int = string_of_int
let json_list f xs = "[" ^ String.concat ", " (List.map f xs) ^ "]"

let metric (name, value, unit) =
  (name, json_obj [ ("value", json_num value); ("unit", json_string unit) ])

let print_result ~stamp ~trials ~metrics =
  let attempted = List.fold_left (fun a r -> a + r.attempted) 0 trials in
  let failed = List.fold_left (fun a r -> a + r.failed) 0 trials in
  print_endline (json_obj [ ("stamp", json_obj stamp) ]);
  print_endline
    (json_obj
       [
         ("correct", string_of_bool (failed = 0));
         ("attempted", json_int attempted);
         ("failed", json_int failed);
         ("metrics", json_obj (List.map metric metrics));
       ]);
  if failed <> 0 then exit 1

let common_stamp w ~seed ~seconds ~trace ~trials =
  [
    ("workload", json_string w.name);
    ("seed", json_int seed);
    ("seconds", json_num seconds);
    ("trace", json_int trace);
    ("cores", json_int (Domain.recommended_domain_count ()));
    ("ocaml", json_string Sys.ocaml_version);
    ( "commit",
      json_string
        (Option.value (Sys.getenv_opt "PERFBENCH_COMMIT") ~default:"unknown") );
    ("stream_digest", json_string (digest (stream w ~seed ~salt:2 w.measured_ops)));
    ("trials", json_int (List.length trials));
    ("attempted", json_int (List.fold_left (fun a r -> a + r.attempted) 0 trials));
    ("failed", json_int (List.fold_left (fun a r -> a + r.failed) 0 trials));
    ("ops_per_trial", json_int w.measured_ops);
    ("prefill_ops", json_int w.prefill_ops);
  ]

let end_to_end w ~seed ~seconds =
  let pool = { data = Array.make 65536 0; len = 0 } in
  let trials =
    repeat ~seconds
      ~warmup:(fun () -> ignore (trial w ~seed ~tr:None))
      (fun () ->
        let r = trial w ~seed ~tr:None in
        pool_add pool r.samples;
        r)
  in
  let sorted = Array.sub pool.data 0 pool.len in
  Array.sort compare sorted;
  let p50, beyond50 = percentile sorted 0.50 in
  let p99, beyond99 = percentile sorted 0.99 in
  let us ns = float_of_int ns /. 1e3 in
  let thr = List.map ops_per_s trials in
  let setup = List.map (fun r -> float_of_int r.setup_ns /. 1e9) trials in
  let heap = List.map (fun r -> float_of_int (r.heap_words * 8) /. 1e6) trials in
  let stamp =
    common_stamp w ~seed ~seconds ~trace:0 ~trials
    @ [
        ("latency_samples", json_int pool.len);
        ("latency_sample", json_string
           (match w.shape with Batched_turns _ -> "one flush of a turn" | _ -> "one op"));
        ("p50_beyond", json_int beyond50);
        ("p99_beyond", json_int beyond99);
        ("ops_per_s_trials", json_list json_num thr);
        ("setup_s_trials", json_list json_num setup);
        ("heap_words_trials", json_list json_int (List.map (fun r -> r.heap_words) trials));
      ]
  in
  print_result ~stamp ~trials
    ~metrics:
      [
        ("ops_per_s", median thr, "1/s");
        ("lat_p50_us", us p50, "us");
        ("lat_p99_us", us p99, "us");
        ("heap_retained_mb", median heap, "MB");
        ("setup_s", median setup, "s");
      ]

(* The traced run alternates untraced and traced trials of one seed; the
   ratio of their throughputs is the tracing overhead.  Counts come from
   the last traced trial (every traced trial of a seed counts the same;
   the self-test checks it across runs), times are medians. *)
let traced w ~seed ~seconds ~out_dir =
  (* at most one span per op plus one per flush *)
  let spans = Spans.create ~spans:(2 * w.measured_ops) ~gc:(1 lsl 16) in
  let tr = { spans; src = Spans.source spans } in
  let pairs =
    repeat ~seconds
      ~warmup:(fun () ->
        Runtime_events.pause ();
        ignore (trial w ~seed ~tr:None))
      (fun () ->
        Runtime_events.pause ();
        let u = trial w ~seed ~tr:None in
        Runtime_events.resume ();
        let t = trial w ~seed ~tr:(Some tr) in
        (u, t))
  in
  let untraced = List.map fst pairs and traced = List.map snd pairs in
  let last = List.nth traced (List.length traced - 1) in
  let l = Option.get last.layers in
  let ops = float_of_int last.ops in
  let per x = float_of_int x /. ops in
  let med f = median (List.map (fun r -> f (Option.get r.layers)) traced) in
  let secs ns = float_of_int ns /. 1e9 in
  let thr_u = median (List.map ops_per_s untraced) in
  let thr_t = median (List.map ops_per_s traced) in
  let trace_file = Filename.concat out_dir (Printf.sprintf "%s-seed%d.trace.json" w.name seed) in
  Spans.write_chrome spans ~origin:(if spans.Spans.n > 0 then spans.Spans.start.(0) else 0)
    ~path:trace_file;
  let stamp =
    common_stamp w ~seed ~seconds ~trace:1 ~trials:(untraced @ traced)
    @ [
        ("traced_trials", json_int (List.length traced));
        ("untraced_ops_per_s", json_num thr_u);
        ( "untraced_minor_words_per_op",
          json_num (median (List.map (fun r -> r.minor_words /. float_of_int r.ops) untraced)) );
        ("traced_ops_per_s", json_num thr_t);
        ("spans", json_int l.l_calls);
        ("gc_spans", json_int spans.Spans.gc_n);
        ("lost_gc_events", json_int l.l_lost_events);
        ("store_fallbacks_stats", json_int l.l_fallbacks);
        ("store_rebuilds_stats", json_int l.l_rebuilds);
        ("trace_file", json_string trace_file);
      ]
  in
  print_result ~stamp ~trials:(untraced @ traced)
    ~metrics:
      [
        ("store.entries_per_op", per l.l_entries, "1/op");
        ("store.batched_share", per l.l_batched_ops, "share");
        ("store.fallbacks_per_kop", 1000.0 *. per l.l_fallback_events, "1/kop");
        ("store.busy_s", med (fun l -> secs l.l_busy_ns), "s");
        ("store.self_s", med (fun l -> secs l.l_self_ns), "s");
        ("uc.spec_replays_per_op", per l.l_spec_replays, "1/op");
        ("uc.rebuilds", float_of_int l.l_rebuild_events, "count");
        ("uc.history_entries", float_of_int l.l_history, "count");
        ("spec.commutes_per_op", per l.l_commutes, "1/op");
        ("spec.apply_per_op", per l.l_applies, "1/op");
        ("spec.reads_only_per_op", per l.l_reads_only, "1/op");
        ("mem.reads_per_op", per l.l_mem_reads, "1/op");
        ("mem.writes_per_op", per l.l_mem_writes, "1/op");
        ("scan.escalations_per_op", per l.l_escalations, "1/op");
        ("sim.steps_per_op", per l.l_steps, "1/op");
        ("gc.minor_words_per_op", l.l_minor_words /. ops, "words/op");
        ("gc.promoted_words_per_op", l.l_promoted_words /. ops, "words/op");
        ("gc.major_collections", float_of_int l.l_major_collections, "count");
        ("gc.busy_s", med (fun l -> secs l.l_gc_ns), "s");
        ("trace.overhead", thr_u /. thr_t, "ratio");
      ]

(* --- command line ---------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let out_dir = ref "." in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of the workloads");
      ("--seed", Arg.Set_int seed, "N seed of the op streams and the scheduler");
      ("--seconds", Arg.Set_float seconds, "S how long to repeat trials");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or traced per-layer run");
      ("--out-dir", Arg.Set_string out_dir, "DIR where the traced run writes its spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  match List.find_opt (fun w -> w.name = !workload) workloads with
  | None ->
      prerr_endline
        ("unknown workload " ^ !workload ^ "; expected one of "
        ^ String.concat ", " (List.map (fun w -> w.name) workloads));
      exit 2
  | Some w -> (
      match !trace with
      | 0 -> end_to_end w ~seed:!seed ~seconds:!seconds
      | 1 -> traced w ~seed:!seed ~seconds:!seconds ~out_dir:!out_dir
      | _ ->
          prerr_endline "--trace must be 0 or 1";
          exit 2)
