(* Scheduling policies over [Driver].

   A scheduler is a function from the current execution to an action:
   step one process, crash one process, or stop.  Because [Driver] exposes
   each process's pending access, schedulers here range from simple fair
   policies (round-robin) to full-information adversaries (see
   [Agreement.Adversary] for the Lemma 6 construction, which additionally
   uses replay). *)

type action =
  | Step of int
  | Crash of int
  | Stop

type 'r t = 'r Driver.t -> action

let run ?(max_steps = 1_000_000) sched driver =
  let rec loop fuel =
    if fuel = 0 then
      failwith "Scheduler.run: step budget exhausted (livelock or unfair \
                scheduler against a non-wait-free implementation?)"
    else if Driver.all_quiescent driver then ()
    else
      (* every action charges fuel: [Driver.crash] of an already-crashed
         (or finished) process is a no-op that leaves the execution
         unchanged, so a scheduler stuck on such a crash would otherwise
         spin this loop forever without touching the step budget *)
      match sched driver with
      | Stop -> ()
      | Crash p ->
          Driver.crash driver p;
          loop (fuel - 1)
      | Step p ->
          Driver.step driver p;
          loop (fuel - 1)
  in
  loop max_steps

(* Round-robin over runnable processes, starting from the process after
   the most recently stepped one.  Fair: every runnable process is stepped
   infinitely often. *)
let round_robin () =
  let last = ref (-1) in
  fun driver ->
    let n = Driver.procs driver in
    let rec find k =
      if k = n then Stop
      else
        let p = (!last + 1 + k) mod n in
        if Driver.runnable driver p then (
          last := p;
          Step p)
        else find (k + 1)
    in
    find 0

(* Uniformly random choice among runnable processes; deterministic given
   [seed].  With [crash_prob] > 0 each decision may instead crash a random
   runnable process, as long as at least [min_alive] processes remain
   un-crashed (finished processes count as alive: they did not fail). *)
let random ?(crash_prob = 0.0) ?(min_alive = 1) ~seed () =
  let rng = Random.State.make [| seed |] in
  fun driver ->
    match Driver.runnable_list driver with
    | [] -> Stop
    | runnable ->
        let alive =
          let n = Driver.procs driver in
          let count = ref 0 in
          for p = 0 to n - 1 do
            if Driver.status driver p <> Driver.Halted then incr count
          done;
          !count
        in
        let pick l = List.nth l (Random.State.int rng (List.length l)) in
        if crash_prob > 0.0 && alive > min_alive
           && Random.State.float rng 1.0 < crash_prob
        then Crash (pick runnable)
        else Step (pick runnable)

(* Probabilistic Concurrency Testing (Burckhardt et al.): assign random
   priorities to processes and always run the highest-priority runnable
   one; at [depth] randomly chosen global step indices, demote the
   current top priority below everything.  For bugs that need d ordering
   constraints, PCT finds them with probability >= 1/(n * k^(d-1)) — a
   far better bug-finder per schedule than uniform random for small
   depth.  [max_steps] is the assumed bound k on the execution length. *)
(* Change points must be distinct: each one demotes the current leader,
   and colliding indices silently collapse to fewer than [depth]
   demotions — exactly the d-1 priority changes the PCT guarantee needs.
   Rejection sampling is fine (depth << max_steps in any sensible use);
   when depth >= max_steps every step is a change point. *)
let draw_change_points rng ~depth ~max_steps =
  let bound = max 1 max_steps in
  let depth = min depth bound in
  let seen = Hashtbl.create 8 in
  let rec draw acc k =
    if k = 0 then List.rev acc
    else
      let i = Random.State.int rng bound in
      if Hashtbl.mem seen i then draw acc k
      else begin
        Hashtbl.add seen i ();
        draw (i :: acc) (k - 1)
      end
  in
  draw [] depth

let pct_rng ~seed ~depth = Random.State.make [| seed; depth |]

let pct_change_points ~seed ~depth ~max_steps =
  draw_change_points (pct_rng ~seed ~depth) ~depth ~max_steps

let pct ~seed ~depth ~max_steps () =
  let rng = pct_rng ~seed ~depth in
  let priorities = Hashtbl.create 8 in
  let floor_priority = ref 0.0 in
  let change_points = Hashtbl.create 8 in
  List.iter
    (fun i -> Hashtbl.replace change_points i ())
    (draw_change_points rng ~depth ~max_steps);
  let steps_taken = ref 0 in
  fun driver ->
    let n = Driver.procs driver in
    for p = 0 to n - 1 do
      if not (Hashtbl.mem priorities p) then
        Hashtbl.add priorities p (1.0 +. Random.State.float rng 1.0)
    done;
    match Driver.runnable_list driver with
    | [] -> Stop
    | runnable ->
        let best () =
          Option.get
            (List.fold_left
               (fun acc p ->
                 match acc with
                 | None -> Some p
                 | Some q ->
                     if Hashtbl.find priorities p > Hashtbl.find priorities q
                     then Some p
                     else acc)
               None runnable)
        in
        let p = best () in
        let p =
          if Hashtbl.mem change_points !steps_taken then begin
            (* demote below everything seen so far, and let the demotion
               take effect NOW: re-pick the leader before stepping, so
               the change point actually flips the order at this step
               (stepping the demoted process anyway delays the flip by
               one step and breaks the d-constraint guarantee) *)
            floor_priority := !floor_priority -. 1.0;
            Hashtbl.replace priorities p !floor_priority;
            best ()
          end
          else p
        in
        incr steps_taken;
        Step p
