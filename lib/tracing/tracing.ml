(* Structured execution tracing (see tracing.mli for the design).

   The journal is a mutex-protected reversed event list plus a sequence
   counter: O(1) append, safe under domains, and cheap enough that one
   journal can absorb both feeds (driver observer on the simulator,
   [Runtime.Instrument] hooks on native domains) without reordering — the
   mutex
   serializes stamping, so [seq] is the journal's total order.

   Two clocks:

   - [`Logical]: time = seq.  Deterministic, so a simulator trace
     replayed under the same schedule re-exports byte-identically — the
     property the save/parse round-trip tests pin down.
   - [`Monotonic]: nanoseconds since journal creation on
     [Monotonic_clock.now], read under the journal lock, so times never
     decrease in seq order and Chrome span nesting stays sane. *)

type event_kind =
  | Access of { kind : Pram.Trace.kind; reg_id : int; reg_name : string }
  | Invoke of string
  | Response of string
  | Annotate of string
  | Crash

type event = {
  seq : int;
  pid : int;
  time : int;
  ev : event_kind;
}

type clock =
  [ `Logical
  | `Monotonic ]

module Journal = struct
  type t = {
    procs : int;
    clock : clock;
    epoch : int;  (* monotonic ns at creation; `Monotonic origin *)
    lock : Mutex.t;
    mutable events_rev : event list;
    mutable next_seq : int;
  }

  let now_ns () = Int64.to_int (Monotonic_clock.now ())

  let create ?(clock = `Logical) ~procs () =
    if procs <= 0 then invalid_arg "Tracing.Journal.create: procs <= 0";
    {
      procs;
      clock;
      epoch = now_ns ();
      lock = Mutex.create ();
      events_rev = [];
      next_seq = 0;
    }

  let procs t = t.procs
  let clock t = t.clock

  let record t ~pid ev =
    if pid < 0 || pid >= t.procs then
      invalid_arg
        (Printf.sprintf "Tracing.Journal: pid %d out of range 0..%d" pid
           (t.procs - 1));
    Mutex.lock t.lock;
    let seq = t.next_seq in
    let time =
      match t.clock with `Logical -> seq | `Monotonic -> now_ns () - t.epoch
    in
    t.next_seq <- seq + 1;
    t.events_rev <- { seq; pid; time; ev } :: t.events_rev;
    Mutex.unlock t.lock

  let access t ~pid ~kind ~reg_id ~reg_name =
    record t ~pid (Access { kind; reg_id; reg_name })

  let invoke t ~pid op = record t ~pid (Invoke op)
  let response t ~pid op = record t ~pid (Response op)
  let annotate t ~pid note = record t ~pid (Annotate note)
  let crash t ~pid = record t ~pid Crash

  let with_span t ~pid ~op f =
    invoke t ~pid op;
    Fun.protect ~finally:(fun () -> response t ~pid op) f

  let observer t (a : Pram.Trace.access) =
    access t ~pid:a.pid ~kind:a.kind ~reg_id:a.reg_id ~reg_name:a.reg_name

  let length t =
    Mutex.lock t.lock;
    let n = t.next_seq in
    Mutex.unlock t.lock;
    n

  let events t =
    Mutex.lock t.lock;
    let evs = t.events_rev in
    Mutex.unlock t.lock;
    List.rev evs
end

(* Pid attribution for native domains lives in [Runtime] (one
   [Domain.DLS] slot, set by [Runtime.run_domains]);
   [Runtime.Instrument] wraps the versioned registers and feeds this
   journal through a [Runtime.Sink]. *)

(* --- archives --------------------------------------------------------------- *)

type archive = {
  a_procs : int;
  a_clock : clock;
  a_schedule : int list;
  a_events : event list;
}

let archive ?(schedule = []) j =
  {
    a_procs = Journal.procs j;
    a_clock = Journal.clock j;
    a_schedule = schedule;
    a_events = Journal.events j;
  }

(* --- renderer 1: per-pid ASCII timeline ------------------------------------- *)

let cell_text ev =
  match ev with
  | Access { kind = Pram.Trace.Read; reg_name; _ } -> "R " ^ reg_name
  | Access { kind = Pram.Trace.Write; reg_name; _ } -> "W " ^ reg_name
  | Invoke op -> "[ " ^ op
  | Response op -> "] " ^ op
  | Annotate note -> "@ " ^ note
  | Crash -> "!! crash"

let pp_timeline ppf a =
  let n = a.a_procs in
  (* column width per pid: widest cell in that column, clamped so one
     long register name cannot blow up the whole table *)
  let widths = Array.make n 2 in
  for p = 0 to n - 1 do
    widths.(p) <- String.length (Printf.sprintf "p%d" p)
  done;
  List.iter
    (fun e ->
      widths.(e.pid) <- max widths.(e.pid) (String.length (cell_text e.ev)))
    a.a_events;
  let widths = Array.map (fun w -> min w 28) widths in
  let pad s w =
    let s = if String.length s > w then String.sub s 0 w else s in
    s ^ String.make (w - String.length s) ' '
  in
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "%s" (pad "seq" 5);
  for p = 0 to n - 1 do
    Format.fprintf ppf "  %s" (pad (Printf.sprintf "p%d" p) widths.(p))
  done;
  List.iter
    (fun e ->
      Format.fprintf ppf "@,%s" (pad (string_of_int e.seq) 5);
      for p = 0 to n - 1 do
        let cell = if p = e.pid then cell_text e.ev else "" in
        Format.fprintf ppf "  %s" (pad cell widths.(p))
      done)
    a.a_events;
  Format.fprintf ppf "@]"

let timeline a = Format.asprintf "%a" pp_timeline a

(* --- renderer 2: the Chrome trace-event archive -----------------------------

   The Trace Event format's JSON object, one event per line:

     {
       "traceEvents": [
         {"name": "process_name", "ph": "M", "pid": 1, "tid": 0, ...},
         {"name": "W r[0]", "cat": "access", "ph": "i", "ts": 0, ...},
         ...
       ],
       "displayTimeUnit": "ms",
       "otherData": {"procs": 3, "clock": "logical", "schedule": [0, 1, -3]}
     }

   Trace viewers ignore [otherData]; it carries what the events do not,
   so [parse] can rebuild the archive.  The event's [tid] is its pid,
   and its position among the non-metadata events is its seq.  Logical
   timestamps are steps (one step = 1us); monotonic ones are ns / 1000,
   printed as the shortest decimal that reads back to the same float,
   so the nanoseconds come back exactly. *)

let ts clock time =
  match clock with
  | `Logical -> float_of_int time
  | `Monotonic -> float_of_int time /. 1e3

let kind_code = function Pram.Trace.Read -> "R" | Pram.Trace.Write -> "W"

let chrome_event clock e =
  let head name cat ph =
    [
      ("name", Json.Str name);
      ("cat", Json.Str cat);
      ("ph", Json.Str ph);
      ("ts", Json.Num (ts clock e.time));
      ("pid", Json.Num 1.0);
      ("tid", Json.Num (float_of_int e.pid));
    ]
  in
  let instant = ("s", Json.Str "t") in
  Json.Obj
    (match e.ev with
    | Invoke op -> head op "op" "B"
    | Response op -> head op "op" "E"
    | Annotate note -> head note "annotation" "i" @ [ instant ]
    | Crash -> head "crash" "crash" "i" @ [ instant ]
    | Access { kind; reg_id; reg_name } ->
        let k = kind_code kind in
        head (k ^ " " ^ reg_name) "access" "i"
        @ [
            instant;
            ( "args",
              Json.Obj
                [
                  ("reg", Json.Str reg_name);
                  ("reg_id", Json.Num (float_of_int reg_id));
                  ("kind", Json.Str k);
                ] );
          ])

let save a =
  let meta name tid label =
    Json.Obj
      [
        ("name", Json.Str name);
        ("ph", Json.Str "M");
        ("pid", Json.Num 1.0);
        ("tid", Json.Num (float_of_int tid));
        ("args", Json.Obj [ ("name", Json.Str label) ]);
      ]
  in
  let events =
    meta "process_name" 0 "wfa"
    :: List.init a.a_procs (fun p ->
           meta "thread_name" p (Printf.sprintf "p%d" p))
    @ List.map (chrome_event a.a_clock) a.a_events
  in
  let other =
    Json.Obj
      [
        ("procs", Json.Num (float_of_int a.a_procs));
        ( "clock",
          Json.Str
            (match a.a_clock with
            | `Logical -> "logical"
            | `Monotonic -> "monotonic") );
        ( "schedule",
          Json.Arr
            (List.map (fun act -> Json.Num (float_of_int act)) a.a_schedule) );
      ]
  in
  Printf.sprintf
    "{\n  \"traceEvents\": [\n    %s\n  ],\n  \"displayTimeUnit\": \"ms\",\n  \
     \"otherData\": %s\n}\n"
    (String.concat ",\n    " (List.map Json.to_string events))
    (Json.to_string other)

let write_file ~path a =
  Out_channel.with_open_bin path (fun oc -> output_string oc (save a))

(* --- the reader: [parse] inverts [save] ----------------------------------- *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun msg -> raise (Bad msg)) fmt

(* A missing member reads as [Null]. *)
let field k v =
  match v with
  | Json.Obj members -> (
      match List.assoc_opt k members with Some m -> m | None -> Json.Null)
  | _ -> Json.Null

let int_of k = function
  | Json.Num f when Float.is_integer f -> int_of_float f
  | _ -> bad "%s is missing or not an integer" k

let str k v =
  match field k v with
  | Json.Str s -> s
  | _ -> bad "%s is missing or not a string" k

let parse contents =
  try
    let root =
      match Json.parse contents with Ok v -> v | Error e -> bad "not JSON: %s" e
    in
    let other = field "otherData" root in
    let procs = int_of "procs" (field "procs" other) in
    if procs <= 0 then bad "procs %d is not positive" procs;
    let clock =
      match str "clock" other with
      | "logical" -> `Logical
      | "monotonic" -> `Monotonic
      | c -> bad "unknown clock %S" c
    in
    let schedule =
      match field "schedule" other with
      | Json.Arr acts ->
          List.map
            (fun act ->
              let act = int_of "schedule entry" act in
              if act < -procs || act >= procs then
                bad "schedule entry %d out of range" act;
              act)
            acts
      | _ -> bad "schedule is missing or not an array"
    in
    let time e =
      match (clock, field "ts" e) with
      | `Logical, ts -> int_of "ts" ts
      | `Monotonic, Json.Num us -> Float.to_int (Float.round (us *. 1e3))
      | `Monotonic, _ -> bad "ts is missing or not a number"
    in
    let event seq e =
      let pid = int_of "tid" (field "tid" e) in
      if pid < 0 || pid >= procs then bad "pid %d out of range" pid;
      let name = str "name" e in
      let ev =
        match (str "cat" e, str "ph" e) with
        | "op", "B" -> Invoke name
        | "op", "E" -> Response name
        | "annotation", "i" -> Annotate name
        | "crash", "i" -> Crash
        | "access", "i" ->
            let args = field "args" e in
            if args = Json.Null then bad "access event %d has no args" seq;
            let kind =
              match str "kind" args with
              | "R" -> Pram.Trace.Read
              | "W" -> Pram.Trace.Write
              | k -> bad "unknown access kind %S" k
            in
            Access
              {
                kind;
                reg_id = int_of "reg_id" (field "reg_id" args);
                reg_name = str "reg" args;
              }
        | cat, ph -> bad "unknown event cat %S with ph %S" cat ph
      in
      { seq; pid; time = time e; ev }
    in
    let events =
      match field "traceEvents" root with
      | Json.Arr evs ->
          List.filter (fun e -> field "ph" e <> Json.Str "M") evs
          |> List.mapi event
      | _ -> bad "traceEvents is missing or not an array"
    in
    Ok { a_procs = procs; a_clock = clock; a_schedule = schedule;
         a_events = events }
  with Bad msg -> Error msg

let load_file ~path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | contents -> parse contents
