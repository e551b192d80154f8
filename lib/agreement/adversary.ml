(* The lower-bound adversary of Lemma 6, and a greedy n-process
   generalization.

   The proof's adversary is defined over PREFERENCES: a process's
   preference at a point in the execution is the value it would return if
   it ran alone from there.  Continuations cannot be cloned, but the
   simulator is a deterministic function of the schedule, so the
   preference oracle is implemented by REPLAY: re-run a fresh execution of
   the same program over the schedule prefix, then let the process run
   solo and observe its output.

   The two-process strategy follows the proof of Lemma 6 exactly:

   1. run P until it is about to change Q's preference (or P finishes);
      symmetrically for Q;
   2. once each process is about to change the other's preference,
      schedule P, Q, or both — whichever keeps the preference gap
      largest.  The proof shows the best choice shrinks the gap by at
      most a factor of 3, so at least floor(log3(delta/epsilon)) steps
      are forced before the gap can fall below epsilon.

   The adversary is implementation-agnostic: it works against anything
   matching [protocol], not just our Figure 2 algorithm. *)

type protocol = {
  procs : int;
  setup : unit -> int -> float;
      (* a fresh instance: process [pid] runs the full protocol (e.g.
         input then output) and returns its decision *)
  epsilon : float;
}

type outcome = {
  schedule : int list;  (* the adversarial prefix, oldest step first *)
  forced_steps : int array;  (* per-process steps in the full execution *)
  outputs : float array;
  iterations : int;  (* adversary decision rounds *)
}

let solo_budget = 1_000_000

let replay proto prefix =
  Pram.Driver.replay ~procs:proto.procs proto.setup prefix

(* The preference oracle.  For a finished process this is its output. *)
let preference proto prefix p =
  let d = replay proto prefix in
  if not (Pram.Driver.run_solo ~max_steps:solo_budget d p) then
    failwith "Adversary.preference: process did not terminate solo \
              (implementation not wait-free?)";
  match Pram.Driver.result d p with
  | Some v -> v
  | None -> failwith "Adversary.preference: no result"

let finished proto prefix p =
  let d = replay proto prefix in
  not (Pram.Driver.runnable d p)

(* Run the execution to completion after the adversarial prefix (solo
   completion in pid order — the adversary has given up forcing). *)
let complete proto prefix =
  let d = replay proto prefix in
  for p = 0 to proto.procs - 1 do
    if Pram.Driver.runnable d p then
      if not (Pram.Driver.run_solo ~max_steps:solo_budget d p) then
        failwith "Adversary.complete: non-terminating process"
  done;
  d

let outcome_of proto prefix iterations =
  let d = complete proto prefix in
  {
    schedule = prefix;
    forced_steps = Array.init proto.procs (fun p -> Pram.Driver.steps d p);
    outputs =
      Array.init proto.procs (fun p ->
          match Pram.Driver.result d p with Some v -> v | None -> nan);
    iterations;
  }

let max_forced o = Array.fold_left max 0 o.forced_steps

(* --- the two-process Lemma 6 strategy ---------------------------------- *)

let run_two_process ?(max_iterations = 100_000) proto =
  if proto.procs <> 2 then invalid_arg "Adversary.run_two_process: procs <> 2";
  let eps = proto.epsilon in
  (* Advance p (appending to the reversed prefix) until it is about to
     change q's preference, or finishes. *)
  let rec push_until_pivot prefix_rev p q fuel =
    if fuel = 0 then prefix_rev
    else
      let prefix = List.rev prefix_rev in
      if finished proto prefix p then prefix_rev
      else
        let before = preference proto prefix q in
        let after = preference proto (prefix @ [ p ]) q in
        if not (Float.equal before after) then prefix_rev
        else push_until_pivot (p :: prefix_rev) p q (fuel - 1)
  in
  let rec main prefix_rev iterations =
    if iterations >= max_iterations then (prefix_rev, iterations)
    else
      let prefix = List.rev prefix_rev in
      if finished proto prefix 0 || finished proto prefix 1 then
        (prefix_rev, iterations)
      else
        let gap =
          Float.abs (preference proto prefix 0 -. preference proto prefix 1)
        in
        if gap <= eps then (prefix_rev, iterations)
        else
          let prefix_rev = push_until_pivot prefix_rev 0 1 10_000 in
          let prefix_rev = push_until_pivot prefix_rev 1 0 10_000 in
          let prefix = List.rev prefix_rev in
          if finished proto prefix 0 || finished proto prefix 1 then
            (prefix_rev, iterations)
          else
            (* both processes are about to change each other's preference;
               keep the gap as large as possible (proof: the best of these
               is at least a third of the current gap) *)
            let extensions = [ [ 0 ]; [ 1 ]; [ 0; 1 ]; [ 1; 0 ] ] in
            let gap_after ext =
              let pre = prefix @ ext in
              Float.abs (preference proto pre 0 -. preference proto pre 1)
            in
            let best =
              List.fold_left
                (fun (best_ext, best_gap) ext ->
                  let g = gap_after ext in
                  if g > best_gap then (ext, g) else (best_ext, best_gap))
                ([ 0 ], gap_after [ 0 ])
                (List.tl extensions)
            in
            main (List.rev_append (fst best) prefix_rev) (iterations + 1)
  in
  let prefix_rev, iterations = main [] 0 in
  outcome_of proto (List.rev prefix_rev) iterations

(* --- greedy n-process adversary ----------------------------------------- *)

(* For n >= 3 the Lemma 6 argument generalizes (and by Hoest-Shavit the
   achievable bound improves to log2); this greedy adversary considers
   single steps and ordered pairs of steps, always choosing the extension
   that keeps the spread of preferences largest.  Used by experiment E8. *)
let run_greedy ?(max_iterations = 100_000) proto =
  let eps = proto.epsilon in
  let spread prefix =
    let prefs =
      List.init proto.procs (fun p -> preference proto prefix p)
    in
    match prefs with
    | [] -> 0.0
    | x :: rest ->
        List.fold_left Float.max x rest -. List.fold_left Float.min x rest
  in
  let rec main prefix_rev iterations =
    if iterations >= max_iterations then (prefix_rev, iterations)
    else
      let prefix = List.rev prefix_rev in
      let alive =
        List.filter
          (fun p -> not (finished proto prefix p))
          (List.init proto.procs Fun.id)
      in
      if alive = [] then (prefix_rev, iterations)
      else if spread prefix <= eps then (prefix_rev, iterations)
      else
        let singles = List.map (fun p -> [ p ]) alive in
        let pairs =
          List.concat_map
            (fun p ->
              List.filter_map
                (fun q -> if p <> q then Some [ p; q ] else None)
                alive)
            alive
        in
        let extensions = singles @ pairs in
        let best =
          List.fold_left
            (fun (best_ext, best_spread) ext ->
              let s = spread (prefix @ ext) in
              if s > best_spread then (ext, s) else (best_ext, best_spread))
            (List.hd extensions, spread (prefix @ List.hd extensions))
            (List.tl extensions)
        in
        main (List.rev_append (fst best) prefix_rev) (iterations + 1)
  in
  let prefix_rev, iterations = main [] 0 in
  outcome_of proto (List.rev prefix_rev) iterations
