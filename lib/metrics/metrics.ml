(* The shared-memory observability layer (see metrics.mli for the
   design).  One recorder serves both backends:

   - simulator: [Recorder.observer] plugs into [Driver.create ?observer],
     so attribution follows the firing schedule exactly (one count per
     step, the paper's cost unit);
   - native: [Runtime.Instrument] wraps a backend via [Memory.Hooked]
     and attributes each access to the calling domain's
     [Runtime.set_pid].

   Counter layout: per-pid counts are plain [Atomic.t] cells (uncontended
   — each pid bumps only its own), per-register and span tables live
   behind one mutex (contended, but metrics runs are never timing runs;
   the unwrapped backends pay nothing). *)

module Stats = struct
  type t = {
    count : int;
    min : int;
    max : int;
    mean : float;
    p50 : int;
    p99 : int;
  }

  let pp ppf s =
    Format.fprintf ppf "n=%d min=%d mean=%.1f p50=%d p99=%d max=%d" s.count
      s.min s.mean s.p50 s.p99 s.max
end

module Histogram = struct
  (* A growable array of raw observations: exact quantiles, O(1) insert,
     and the sample sizes here (operations per run) never justify
     bucketing. *)
  type t = {
    mutable data : int array;
    mutable len : int;
  }

  let create () = { data = Array.make 16 0; len = 0 }

  let add t v =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0 in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- v;
    t.len <- t.len + 1

  let count t = t.len

  let stats t =
    if t.len = 0 then None
    else begin
      let sorted = Array.sub t.data 0 t.len in
      Array.sort compare sorted;
      let total = Array.fold_left ( + ) 0 sorted in
      (* nearest-rank quantiles: the smallest value with at least the
         requested fraction of the sample at or below it *)
      let rank q =
        max 1 (int_of_float (ceil (q *. float_of_int t.len)))
      in
      Some
        {
          Stats.count = t.len;
          min = sorted.(0);
          max = sorted.(t.len - 1);
          mean = float_of_int total /. float_of_int t.len;
          p50 = sorted.(rank 0.50 - 1);
          p99 = sorted.(rank 0.99 - 1);
        }
    end
end

type reg_stat = {
  rs_id : int;
  rs_name : string;
  rs_reads : int;
  rs_writes : int;
}

module Snapshot = struct
  type t = {
    procs : int;
    reads_per_pid : int array;
    writes_per_pid : int array;
    registers_created : int;
    per_register : reg_stat list;
    spans : (string * Stats.t) list;
  }
end

module Recorder = struct
  type reg_cell = {
    rc_name : string;
    mutable rc_reads : int;
    mutable rc_writes : int;
  }

  type t = {
    n : int;
    pid_reads : int Atomic.t array;
    pid_writes : int Atomic.t array;
    created : int Atomic.t;
    lock : Mutex.t;
    regs : (int, reg_cell) Hashtbl.t;  (* guarded by lock *)
    spans : (string, Histogram.t) Hashtbl.t;  (* guarded by lock *)
  }

  let create ~procs =
    if procs <= 0 then invalid_arg "Metrics.Recorder.create: procs <= 0";
    {
      n = procs;
      pid_reads = Array.init procs (fun _ -> Atomic.make 0);
      pid_writes = Array.init procs (fun _ -> Atomic.make 0);
      created = Atomic.make 0;
      lock = Mutex.create ();
      regs = Hashtbl.create 64;
      spans = Hashtbl.create 8;
    }

  let procs t = t.n

  let check_pid t pid =
    if pid < 0 || pid >= t.n then
      invalid_arg
        (Printf.sprintf "Metrics.Recorder: pid %d out of range 0..%d" pid
           (t.n - 1))

  let locked t f =
    Mutex.lock t.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

  let reg_cell t ~reg_id ~reg_name =
    match Hashtbl.find_opt t.regs reg_id with
    | Some c -> c
    | None ->
        let c = { rc_name = reg_name; rc_reads = 0; rc_writes = 0 } in
        Hashtbl.add t.regs reg_id c;
        c

  let record_reg t reg_id reg_name kind =
    match reg_id with
    | None -> ()
    | Some id ->
        let name = Option.value reg_name ~default:(Printf.sprintf "r%d" id) in
        locked t (fun () ->
            let c = reg_cell t ~reg_id:id ~reg_name:name in
            match kind with
            | `Read -> c.rc_reads <- c.rc_reads + 1
            | `Write -> c.rc_writes <- c.rc_writes + 1)

  let record_read ?reg_id ?reg_name t ~pid =
    check_pid t pid;
    Atomic.incr t.pid_reads.(pid);
    record_reg t reg_id reg_name `Read

  let record_write ?reg_id ?reg_name t ~pid =
    check_pid t pid;
    Atomic.incr t.pid_writes.(pid);
    record_reg t reg_id reg_name `Write

  let record_create t ~reg_id ~reg_name =
    Atomic.incr t.created;
    locked t (fun () -> ignore (reg_cell t ~reg_id ~reg_name))

  let reads t ~pid =
    check_pid t pid;
    Atomic.get t.pid_reads.(pid)

  let writes t ~pid =
    check_pid t pid;
    Atomic.get t.pid_writes.(pid)

  let total_over a = Array.fold_left (fun acc c -> acc + Atomic.get c) 0 a
  let total_reads t = total_over t.pid_reads
  let total_writes t = total_over t.pid_writes
  let registers_created t = Atomic.get t.created

  let add_span t ~op steps =
    locked t (fun () ->
        let h =
          match Hashtbl.find_opt t.spans op with
          | Some h -> h
          | None ->
              let h = Histogram.create () in
              Hashtbl.add t.spans op h;
              h
        in
        Histogram.add h steps)

  let with_span t ~pid ~op f =
    check_pid t pid;
    let r0 = Atomic.get t.pid_reads.(pid)
    and w0 = Atomic.get t.pid_writes.(pid) in
    let finish () =
      let steps =
        Atomic.get t.pid_reads.(pid) - r0
        + (Atomic.get t.pid_writes.(pid) - w0)
      in
      add_span t ~op steps
    in
    Fun.protect ~finally:finish f

  let span_stats t ~op =
    locked t (fun () ->
        Option.bind (Hashtbl.find_opt t.spans op) Histogram.stats)

  let snapshot t =
    let per_register, spans =
      locked t (fun () ->
          let regs =
            Hashtbl.fold
              (fun id c acc ->
                {
                  rs_id = id;
                  rs_name = c.rc_name;
                  rs_reads = c.rc_reads;
                  rs_writes = c.rc_writes;
                }
                :: acc)
              t.regs []
          in
          let spans =
            Hashtbl.fold
              (fun op h acc ->
                match Histogram.stats h with
                | Some s -> (op, s) :: acc
                | None -> acc)
              t.spans []
          in
          (regs, spans))
    in
    {
      Snapshot.procs = t.n;
      reads_per_pid = Array.map Atomic.get t.pid_reads;
      writes_per_pid = Array.map Atomic.get t.pid_writes;
      registers_created = Atomic.get t.created;
      per_register =
        List.sort (fun a b -> compare a.rs_id b.rs_id) per_register;
      spans = List.sort (fun (a, _) (b, _) -> compare a b) spans;
    }

  let observer t (a : Pram.Trace.access) =
    match a.kind with
    | Pram.Trace.Read ->
        record_read ~reg_id:a.reg_id ~reg_name:a.reg_name t ~pid:a.pid
    | Pram.Trace.Write ->
        record_write ~reg_id:a.reg_id ~reg_name:a.reg_name t ~pid:a.pid
end

(* Pid attribution for native domains lives in [Runtime] (one
   [Domain.DLS] slot shared with tracing); [Runtime.Instrument] wraps a
   backend and feeds this recorder through a [Runtime.Sink]. *)
