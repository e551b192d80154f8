(* Lock-free telemetry: histograms and causal timestamps.

     dune exec examples/telemetry.exe

   A classic observability problem: worker threads record latency
   samples into shared histogram buckets while a reporter thread reads a
   consistent view — without stalling the workers (no locks) and without
   torn reads (no "sum changed while I was adding it up").  The direct
   histogram (per-process monotone bucket totals over one Section 6
   scan) gives exactly that: wait-free observes, linearizable reads.

   The same run stamps every reporter observation with a vector clock,
   so reports can be ordered causally after the fact. *)

module Histogram = Universal.Direct.Histogram (Pram.Native.Versioned)
module VClock = Universal.Direct.Vector_clock (Pram.Native.Versioned)

(* latency -> bucket index (powers of two, microseconds) *)
let bucket_of_us us =
  let rec go b lim = if us < lim || b = 9 then b else go (b + 1) (lim * 2) in
  go 0 100

let bucket_label b =
  if b = 0 then "<100us"
  else if b = 9 then ">=25.6ms"
  else Printf.sprintf "<%dus" (100 * (1 lsl b))

let () =
  let workers = 3 in
  let procs = workers + 1 (* + reporter *) in
  let hist = Histogram.create ~procs in
  let clock = VClock.create ~procs in
  let samples_per_worker = 5_000 in
  let reports = Atomic.make [] in
  let _ =
    Runtime.run_domains ~procs (fun pid ->
        let ctx = Runtime.Ctx.make ~procs ~pid () in
        let hh = Histogram.attach hist ctx in
        let ch = VClock.attach clock ctx in
        if pid < workers then begin
          (* worker: synthetic latency samples, log-normal-ish *)
          let rng = Random.State.make [| 99; pid |] in
          for _ = 1 to samples_per_worker do
            let us =
              int_of_float
                (100.0 *. Float.exp (Random.State.float rng 5.0))
            in
            Histogram.observe hh ~bucket:(bucket_of_us us) 1
          done;
          ignore (VClock.tick ch)
        end
        else begin
          (* reporter: periodic consistent snapshots *)
          let rec report k =
            if k = 0 then ()
            else begin
              let stamp = VClock.tick ch in
              let total = Histogram.total hh in
              Atomic.set reports ((stamp, total) :: Atomic.get reports);
              report (k - 1)
            end
          in
          report 50
        end)
  in
  (* final consistent view *)
  let reporter_h =
    Histogram.attach hist (Runtime.Ctx.make ~procs ~pid:workers ())
  in
  let final = Histogram.bindings reporter_h in
  print_endline "latency histogram (consistent final view):";
  List.iter
    (fun (b, count) -> Printf.printf "  %-9s %6d\n" (bucket_label b) count)
    final;
  let total = Histogram.total reporter_h in
  Printf.printf "total samples: %d (expected %d)\n" total
    (workers * samples_per_worker);
  assert (total = workers * samples_per_worker);
  (* the reporter's interim totals are causally ordered and monotone *)
  let observed = List.rev (Atomic.get reports) in
  let monotone =
    let rec check = function
      | (s1, t1) :: ((s2, t2) :: _ as rest) ->
          VClock.leq s1 s2 && t1 <= t2 && check rest
      | _ -> true
    in
    check observed
  in
  Printf.printf "reporter made %d interim reports; causally ordered and \
                 monotone: %b\n"
    (List.length observed) monotone;
  assert monotone;
  print_endline "telemetry: ok"
