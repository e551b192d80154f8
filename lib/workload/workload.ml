(* Workload generators for the test suite, the benches and the CLI.

   Everything is deterministic in an explicit seed, so experiment rows are
   reproducible (the replay property of [Pram.Driver] extends to whole
   experiments). *)

let rng seed = Random.State.make [| seed; 0x5eed |]

(* Scripts draw from a per-(seed, pid) state rather than one shared
   state: a shared state made each pid's operations depend on the order
   in which pids first requested their script, so two harnesses walking
   pids in different orders silently ran different workloads under "the
   same seed".  With the pid folded into the state, scripts are a pure
   function of (seed, pid).  The state itself is [Runtime.Rng.state] —
   the same stream a [Runtime.Ctx] hands to algorithms — so a script
   generated here and a coin flipped inside the algorithm under the same
   (seed, pid) come from one deterministic source. *)
let rng_for ~seed ~pid = Runtime.Rng.state ~seed ~pid

(* --- operation scripts ---------------------------------------------------- *)

(* A script assigns each process a list of operations. *)
type 'op script = int -> 'op list

(* Memoized per pid so repeated lookups are physically equal (harnesses
   rely on cheap re-reads), while the generated list itself depends only
   on (seed, pid). *)
let memoized_script ~seed gen : _ script =
  let scripts = Hashtbl.create 8 in
  fun pid ->
    match Hashtbl.find_opt scripts pid with
    | Some s -> s
    | None ->
        let s = gen (rng_for ~seed ~pid) in
        Hashtbl.add scripts pid s;
        s

let counter_script ~seed ~ops_per_proc : Spec.Counter_spec.operation script =
  memoized_script ~seed (fun st ->
      List.init ops_per_proc (fun _ ->
          match Random.State.int st 10 with
          | 0 | 1 | 2 | 3 -> Spec.Counter_spec.Inc (1 + Random.State.int st 5)
          | 4 | 5 | 6 -> Spec.Counter_spec.Dec (1 + Random.State.int st 5)
          | 7 | 8 -> Spec.Counter_spec.Read
          | _ -> Spec.Counter_spec.Reset (Random.State.int st 100)))

let gset_script ~seed ~ops_per_proc : Spec.Gset_spec.operation script =
  memoized_script ~seed (fun st ->
      List.init ops_per_proc (fun _ ->
          match Random.State.int st 10 with
          | 0 | 1 | 2 | 3 | 4 | 5 -> Spec.Gset_spec.Add (Random.State.int st 20)
          | 6 | 7 | 8 -> Spec.Gset_spec.Members
          | _ -> Spec.Gset_spec.Clear))

(* --- keyed traffic (zipfian skew) ----------------------------------------- *)

(* Zipfian key popularity: key rank i (1-based) has weight 1/i^theta.
   theta = 0 is uniform; theta around 0.99 is the YCSB-style hot-key
   skew.  Sampling is by binary search over the precomputed CDF, so a
   draw is O(log keys) and allocation-free. *)
module Zipf = struct
  type t = { cdf : float array }

  let make ~keys ~theta =
    if keys <= 0 then invalid_arg "Workload.Zipf.make: keys must be positive";
    if theta < 0.0 then
      invalid_arg "Workload.Zipf.make: theta must be non-negative";
    let cdf = Array.make keys 0.0 in
    let acc = ref 0.0 in
    for i = 0 to keys - 1 do
      acc := !acc +. (1.0 /. Float.pow (float_of_int (i + 1)) theta);
      cdf.(i) <- !acc
    done;
    let total = !acc in
    for i = 0 to keys - 1 do
      cdf.(i) <- cdf.(i) /. total
    done;
    { cdf }

  let keys t = Array.length t.cdf

  (* First rank whose cumulative weight reaches [u]. *)
  let sample t st =
    let u = Random.State.float st 1.0 in
    let lo = ref 0 and hi = ref (Array.length t.cdf - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo
end

let key_name i = Printf.sprintf "k%04d" i

(* A keyed script pairs every operation with its target key: zipfian
   rank drawn per op, mapped to a stable key name, read/mutate chosen by
   [read_fraction].  Like the flat scripts, a pure (memoized) function
   of (seed, pid). *)
let keyed_script ~seed ~keys ~theta ~read_fraction ~ops_per_proc ~read ~mutate
    : (string * _) script =
  if read_fraction < 0.0 || read_fraction > 1.0 then
    invalid_arg "Workload.keyed_script: read_fraction must be in [0,1]";
  memoized_script ~seed (fun st ->
      let z = Zipf.make ~keys ~theta in
      List.init ops_per_proc (fun _ ->
          let key = key_name (Zipf.sample z st) in
          let op =
            if Random.State.float st 1.0 < read_fraction then read st
            else mutate st
          in
          (key, op)))

(* Commute-heavy mutators (Inc/Dec only — the class batching folds);
   Reset never appears, so hostile runs are crafted by hand in tests. *)
let keyed_counter_script ~seed ~keys ~theta ~read_fraction ~ops_per_proc :
    (string * Spec.Counter_spec.operation) script =
  keyed_script ~seed ~keys ~theta ~read_fraction ~ops_per_proc
    ~read:(fun _ -> Spec.Counter_spec.Read)
    ~mutate:(fun st ->
      if Random.State.int st 4 = 0 then
        Spec.Counter_spec.Dec (1 + Random.State.int st 5)
      else Spec.Counter_spec.Inc (1 + Random.State.int st 5))

(* --- the traffic front-end ------------------------------------------------- *)

(* Drives one process's keyed operation stream against a store-like
   consumer through two closures (submit/flush), so this module stays
   independent of the object layer.  Closed loop issues the next
   operation as soon as the previous flush returns; open loop schedules
   arrivals at a fixed rate and measures latency from the SCHEDULED
   arrival (not the actual submit), so queueing delay when the system
   falls behind is charged to the system — the coordinated-omission
   correction.  Latency is filed per operation at flush granularity
   (an operation completes when the flush containing it returns) into
   the run's shared [Telemetry.Sampler], in nanoseconds on the monotonic
   clock. *)
module Traffic = struct
  let now_ns () = Int64.to_int (Monotonic_clock.now ())

  type loop = Closed | Open of { rate : float }

  let drive ~sampler ?(loop = Closed) ?(flush_every = 64) ~ops ~submit ~flush
      () =
    if flush_every <= 0 then
      invalid_arg "Workload.Traffic.drive: flush_every must be positive";
    (match loop with
    | Open { rate } when not (rate > 0.0) ->
        invalid_arg "Workload.Traffic.drive: open-loop rate must be positive"
    | _ -> ());
    let starts = Queue.create () in
    let t0 = now_ns () in
    let flush_now () =
      if not (Queue.is_empty starts) then begin
        flush ();
        let now = now_ns () in
        (* one observation per completed operation, at flush granularity:
           the window it lands in is the flush's window, which is also
           when the operation became visible *)
        Queue.iter
          (fun t ->
            Telemetry.Sampler.observe sampler ~latency_ns:(max 0 (now - t)))
          starts;
        Queue.clear starts
      end
    in
    List.iteri
      (fun i (key, op) ->
        let start =
          match loop with
          | Closed -> now_ns ()
          | Open { rate } ->
              let arrival = t0 + int_of_float (float_of_int i *. 1e9 /. rate) in
              (* wait until the scheduled arrival; if the system is
                 already behind, submit immediately and let the latency
                 measurement absorb the backlog *)
              while now_ns () < arrival do
                Domain.cpu_relax ()
              done;
              arrival
        in
        submit key op;
        Queue.add start starts;
        if (i + 1) mod flush_every = 0 then flush_now ())
      ops;
    flush_now ()
end

(* Inputs for approximate agreement: [procs] values spread over
   [0, delta]. *)
let agreement_inputs ~seed ~procs ~delta =
  let st = rng seed in
  Array.init procs (fun p ->
      if p = 0 then 0.0
      else if p = 1 then delta
      else Random.State.float st delta)

(* --- schedules ------------------------------------------------------------ *)

type schedule_kind =
  | Round_robin
  | Uniform of int  (** seed *)
  | Crashy of int  (** seed; 5% crash probability, at least one survivor *)
  | Bursty of int
      (** seed; runs a randomly chosen process for a geometric burst before
          switching — adversarial for algorithms that rely on
          interleaving *)

let scheduler_of = function
  | Round_robin -> Pram.Scheduler.round_robin ()
  | Uniform seed -> Pram.Scheduler.random ~seed ()
  | Crashy seed -> Pram.Scheduler.random ~crash_prob:0.05 ~min_alive:1 ~seed ()
  | Bursty seed ->
      let st = rng seed in
      let current = ref None in
      let remaining = ref 0 in
      fun driver ->
        let pick () =
          match Pram.Driver.runnable_list driver with
          | [] -> None
          | l -> Some (List.nth l (Random.State.int st (List.length l)))
        in
        (match !current with
        | Some p when !remaining > 0 && Pram.Driver.runnable driver p -> ()
        | _ ->
            current := pick ();
            remaining := 1 + Random.State.int st 16);
        (match !current with
        | Some p ->
            decr remaining;
            Pram.Scheduler.Step p
        | None -> Pram.Scheduler.Stop)

(* A standard mix of schedules for worst-case-ish measurements. *)
let standard_schedules ~seeds =
  Round_robin
  :: List.concat_map
       (fun s -> [ Uniform s; Bursty s; Crashy s ])
       (List.init seeds Fun.id)
