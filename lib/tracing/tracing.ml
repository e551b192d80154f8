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

(* --- renderer 2: Chrome trace-event JSON ------------------------------------ *)

(* Minimal JSON string escaping (the Trace Event format is plain JSON;
   Experiments.Bench_json's parser is the in-repo validator). *)
let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Timestamps: the Trace Event "ts" field is in microseconds.  Logical
   journals map one step to 1us (exact ints, deterministic re-export);
   monotonic journals convert ns -> us with 3 decimals. *)
let ts_string clock time =
  match clock with
  | `Logical -> string_of_int time
  | `Monotonic -> Printf.sprintf "%.3f" (float_of_int time /. 1e3)

let chrome_json a =
  let buf = Buffer.create 4096 in
  let first = ref true in
  let emit line =
    if !first then first := false else Buffer.add_string buf ",\n";
    Buffer.add_string buf "    ";
    Buffer.add_string buf line
  in
  Buffer.add_string buf "{\n  \"traceEvents\": [\n";
  emit
    "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, \
     \"args\": {\"name\": \"wfa\"}}";
  for p = 0 to a.a_procs - 1 do
    emit
      (Printf.sprintf
         "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": \
          %d, \"args\": {\"name\": \"p%d\"}}"
         p p)
  done;
  let common name cat ph e =
    Printf.sprintf
      "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"%s\", \"ts\": %s, \
       \"pid\": 1, \"tid\": %d"
      (json_escape name) cat ph
      (ts_string a.a_clock e.time)
      e.pid
  in
  List.iter
    (fun e ->
      match e.ev with
      | Invoke op -> emit (common op "op" "B" e ^ "}")
      | Response op -> emit (common op "op" "E" e ^ "}")
      | Annotate note ->
          emit (common note "annotation" "i" e ^ ", \"s\": \"t\"}")
      | Crash ->
          emit (common "crash" "crash" "i" e ^ ", \"s\": \"t\"}")
      | Access { kind; reg_id; reg_name } ->
          let k =
            match kind with Pram.Trace.Read -> "R" | Pram.Trace.Write -> "W"
          in
          emit
            (Printf.sprintf
               "%s, \"s\": \"t\", \"args\": {\"reg\": \"%s\", \"reg_id\": \
                %d, \"kind\": \"%s\"}}"
               (common (k ^ " " ^ reg_name) "access" "i" e)
               (json_escape reg_name) reg_id k))
    a.a_events;
  Buffer.add_string buf "\n  ],\n  \"displayTimeUnit\": \"ms\"\n}\n";
  Buffer.contents buf

let write_chrome_file ~path a =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (chrome_json a))

(* --- renderer 3: round-trippable text format --------------------------------

   Line-oriented, one event per line:

     wfa-trace 1
     procs 3
     clock logical
     schedule p0 p1 !p2
     events 2
     0 0 0 W 3 "r[0]"
     1 1 1 inv "scan"

   Event payloads: R/W REGID "NAME" | inv/ret/ann "LABEL" | crash.
   Labels use the usual backslash escapes, so arbitrary strings (and
   register names) survive the round trip; [parse] is an exact inverse
   of [save]. *)

let quote s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let save a =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "wfa-trace 1\n";
  Buffer.add_string buf (Printf.sprintf "procs %d\n" a.a_procs);
  Buffer.add_string buf
    (match a.a_clock with
    | `Logical -> "clock logical\n"
    | `Monotonic -> "clock monotonic\n");
  Buffer.add_string buf "schedule";
  List.iter
    (fun act ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf
        (if act >= 0 then Printf.sprintf "p%d" act
         else Printf.sprintf "!p%d" (-1 - act)))
    a.a_schedule;
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (Printf.sprintf "events %d\n" (List.length a.a_events));
  List.iter
    (fun e ->
      Buffer.add_string buf (Printf.sprintf "%d %d %d " e.seq e.pid e.time);
      (match e.ev with
      | Access { kind; reg_id; reg_name } ->
          Buffer.add_string buf
            (Printf.sprintf "%s %d %s"
               (match kind with Pram.Trace.Read -> "R" | Pram.Trace.Write -> "W")
               reg_id (quote reg_name))
      | Invoke op -> Buffer.add_string buf ("inv " ^ quote op)
      | Response op -> Buffer.add_string buf ("ret " ^ quote op)
      | Annotate note -> Buffer.add_string buf ("ann " ^ quote note)
      | Crash -> Buffer.add_string buf "crash");
      Buffer.add_char buf '\n')
    a.a_events;
  Buffer.contents buf

(* The parser: split into lines, then a tiny per-line tokenizer (ints,
   bare words, quoted strings). *)

exception Parse_error of string

let parse_quoted line pos =
  let n = String.length line in
  if pos >= n || line.[pos] <> '"' then
    raise (Parse_error "expected opening quote");
  let buf = Buffer.create 16 in
  let rec loop i =
    if i >= n then raise (Parse_error "unterminated string")
    else
      match line.[i] with
      | '"' -> i + 1
      | '\\' ->
          if i + 1 >= n then raise (Parse_error "bad escape");
          (match line.[i + 1] with
          | '"' -> Buffer.add_char buf '"'; loop (i + 2)
          | '\\' -> Buffer.add_char buf '\\'; loop (i + 2)
          | 'n' -> Buffer.add_char buf '\n'; loop (i + 2)
          | 't' -> Buffer.add_char buf '\t'; loop (i + 2)
          | 'r' -> Buffer.add_char buf '\r'; loop (i + 2)
          | 'u' ->
              if i + 6 > n then raise (Parse_error "bad \\u escape");
              let code =
                try int_of_string ("0x" ^ String.sub line (i + 2) 4)
                with _ -> raise (Parse_error "bad \\u escape")
              in
              if code > 0xff then raise (Parse_error "non-byte \\u escape");
              Buffer.add_char buf (Char.chr code);
              loop (i + 6)
          | _ -> raise (Parse_error "bad escape"))
      | c ->
          Buffer.add_char buf c;
          loop (i + 1)
  in
  let next = loop (pos + 1) in
  (Buffer.contents buf, next)

let split_words s =
  String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

let parse_event line =
  let words = split_words line in
  match words with
  | seq :: pid :: time :: kind :: rest -> (
      let int_of name s =
        match int_of_string_opt s with
        | Some i -> i
        | None -> raise (Parse_error (Printf.sprintf "bad %s %S" name s))
      in
      let seq = int_of "seq" seq
      and pid = int_of "pid" pid
      and time = int_of "time" time in
      (* labels may contain spaces: re-find the quoted payload in the raw
         line rather than in the split words *)
      let quoted_payload () =
        match String.index_opt line '"' with
        | None -> raise (Parse_error "missing quoted label")
        | Some i ->
            let s, next = parse_quoted line i in
            if String.trim (String.sub line next (String.length line - next))
               <> ""
            then raise (Parse_error "trailing garbage after label");
            s
      in
      match (kind, rest) with
      | "crash", [] -> { seq; pid; time; ev = Crash }
      | ("R" | "W"), reg_id :: _ ->
          let reg_id = int_of "reg_id" reg_id in
          let reg_name = quoted_payload () in
          let kind =
            if kind = "R" then Pram.Trace.Read else Pram.Trace.Write
          in
          { seq; pid; time; ev = Access { kind; reg_id; reg_name } }
      | "inv", _ -> { seq; pid; time; ev = Invoke (quoted_payload ()) }
      | "ret", _ -> { seq; pid; time; ev = Response (quoted_payload ()) }
      | "ann", _ -> { seq; pid; time; ev = Annotate (quoted_payload ()) }
      | k, _ -> raise (Parse_error (Printf.sprintf "unknown event kind %S" k))
      )
  | _ -> raise (Parse_error "truncated event line")

let parse contents =
  try
    let lines = String.split_on_char '\n' contents in
    let expect_prefix prefix line =
      let pl = String.length prefix in
      if String.length line >= pl && String.sub line 0 pl = prefix then
        String.sub line pl (String.length line - pl)
      else raise (Parse_error (Printf.sprintf "expected %S line" prefix))
    in
    match lines with
    | header :: procs_l :: clock_l :: sched_l :: count_l :: rest ->
        if String.trim header <> "wfa-trace 1" then
          raise (Parse_error "not a wfa-trace file (bad header)");
        let procs =
          match int_of_string_opt (String.trim (expect_prefix "procs " procs_l))
          with
          | Some p when p > 0 -> p
          | _ -> raise (Parse_error "bad procs")
        in
        let clock =
          match String.trim (expect_prefix "clock " clock_l) with
          | "logical" -> `Logical
          | "monotonic" -> `Monotonic
          | c -> raise (Parse_error (Printf.sprintf "unknown clock %S" c))
        in
        let sched_body = expect_prefix "schedule" sched_l in
        let schedule =
          match Pram.Trace.parse_encoded_schedule sched_body with
          | Ok s -> s
          | Error e -> raise (Parse_error ("bad schedule: " ^ e))
        in
        let count =
          match
            int_of_string_opt (String.trim (expect_prefix "events " count_l))
          with
          | Some c when c >= 0 -> c
          | _ -> raise (Parse_error "bad event count")
        in
        let event_lines =
          List.filter (fun l -> String.trim l <> "") rest
        in
        if List.length event_lines <> count then
          raise
            (Parse_error
               (Printf.sprintf "event count mismatch: header says %d, got %d"
                  count (List.length event_lines)));
        let events = List.map parse_event event_lines in
        List.iteri
          (fun i e ->
            if e.seq <> i then
              raise (Parse_error (Printf.sprintf "bad seq %d at line %d" e.seq i));
            if e.pid < 0 || e.pid >= procs then
              raise (Parse_error (Printf.sprintf "pid %d out of range" e.pid)))
          events;
        Ok { a_procs = procs; a_clock = clock; a_schedule = schedule;
             a_events = events }
    | _ -> raise (Parse_error "truncated file")
  with Parse_error msg -> Error msg

let load_file ~path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e -> Error e
  | contents -> parse contents
