(* Wait-free approximate agreement (Section 4, Figures 1 and 2).

   The object is represented by an n-element array r of single-writer
   entries, each holding a round number (initially 0, modeled by the entry
   being absent) and a real preference.  A process is a LEADER if its
   round is maximal.  Each pass of [output]'s loop scans the entries
   (n reads), discards entries trailing its own round by two or more, and
   then either:

   - returns its own preference if the live entries span less than
     epsilon/2 (lines 13-14);
   - advances: writes the midpoint of the leaders' preferences with
     round+1, if the leaders span less than epsilon/2 or this is the
     second consecutive scan (lines 15-17);
   - otherwise rescans once before advancing (the [advance] flag,
     lines 18-19).

   Guarantees (proved in the paper, measured by experiments E1-E4):
   - validity: outputs lie within the range of the inputs (Lemma 1);
   - epsilon-agreement: outputs span less than epsilon (Lemmas 3, 4);
   - wait-freedom: at most (2n+1) * log2(delta/epsilon) + O(n) steps per
     process, where delta is the diameter of the inputs (Theorem 5). *)

type entry = { round : int; prefer : float }

module Make (M : Pram.Memory.S) = struct
  type t = {
    procs : int;
    epsilon : float;
    entries : entry option M.reg array;  (* None is the paper's bottom *)
  }

  let create ~procs ~epsilon =
    if procs <= 0 then invalid_arg "Approx_agreement.create: procs";
    if epsilon <= 0.0 then invalid_arg "Approx_agreement.create: epsilon";
    {
      procs;
      epsilon;
      entries =
        Array.init procs (fun p ->
            M.create ~name:(Printf.sprintf "r[%d]" p) None);
    }

  type handle = { obj : t; pid : int; ctx : Runtime.Ctx.t }

  let attach obj ctx =
    let pid = Runtime.Ctx.pid ctx in
    if pid >= obj.procs then
      invalid_arg
        (Printf.sprintf
           "Approx_agreement.attach: ctx pid %d but object has %d procs" pid
           obj.procs);
    { obj; pid; ctx }

  (* Figure 2, lines 1-5: the first input wins; later inputs by the same
     process are ignored. *)
  let input h x =
    let t = h.obj in
    match M.read t.entries.(h.pid) with
    | None -> M.write t.entries.(h.pid) (Some { round = 1; prefer = x })
    | Some _ -> ()

  let range_size prefs =
    match prefs with
    | [] -> 0.0
    | x :: rest ->
        let lo = List.fold_left Float.min x rest in
        let hi = List.fold_left Float.max x rest in
        hi -. lo

  let midpoint prefs =
    match prefs with
    | [] -> invalid_arg "midpoint of empty set"
    | x :: rest ->
        let lo = List.fold_left Float.min x rest in
        let hi = List.fold_left Float.max x rest in
        (lo +. hi) /. 2.0

  (* Figure 2, lines 7-22. *)
  let output h =
    let t = h.obj and pid = h.pid in
    Runtime.Ctx.span h.ctx ~op:"aa.output" @@ fun () ->
    let rec loop advance =
      (* line 10: scan r (n reads, fixed order — the paper allows any) *)
      let entries = Array.map M.read t.entries in
      let mine =
        match entries.(pid) with
        | Some e -> e
        | None -> invalid_arg "Approx_agreement.output: output before input"
      in
      let known =
        Array.to_list entries |> List.filter_map Fun.id
      in
      (* line 11: E = entries within one round of ours.  Entries of
         processes that have not yet called input sit at round 0 with
         prefer = bottom; when our round is <= 1 they belong to E, and a
         set containing bottom has no certifiable range, so the
         termination test below must fail.  This is load-bearing: it
         forces every process to advance to round 2 before returning, so
         a process that inputs later (necessarily at round 1) finds the
         earlier decider among the leaders and adopts its value —
         otherwise two solo runs separated by a late input could return
         values epsilon apart (Lemma 4 would not cover round-1 writes). *)
      let e_contains_bottom =
        mine.round <= 1
        && Array.exists (fun e -> e = None) entries
      in
      let e_set =
        List.filter_map
          (fun e -> if e.round >= mine.round - 1 then Some e.prefer else None)
          known
      in
      (* line 12: L = the leaders (max round >= 1 since we have input,
         so no bottom entry can be a leader) *)
      let max_round = List.fold_left (fun m e -> max m e.round) 0 known in
      let l_set =
        List.filter_map
          (fun e -> if e.round = max_round then Some e.prefer else None)
          known
      in
      if (not e_contains_bottom) && range_size e_set < t.epsilon /. 2.0 then begin
        Runtime.Ctx.annotatef h.ctx "decide %g at round %d" mine.prefer
          mine.round;
        mine.prefer (* lines 13-14 *)
      end
      else if range_size l_set < t.epsilon /. 2.0 || advance then begin
        (* lines 15-17: advance to the leaders' midpoint *)
        let mid = midpoint l_set in
        Runtime.Ctx.annotatef h.ctx "advance -> round %d (midpoint %g)"
          (mine.round + 1) mid;
        M.write t.entries.(pid) (Some { prefer = mid; round = mine.round + 1 });
        loop false
      end
      else begin
        Runtime.Ctx.annotatef h.ctx "rescan at round %d" mine.round;
        loop true (* lines 18-19: rescan once before advancing *)
      end
    in
    loop false
end

(* Theorem 5's upper bound on steps per process:
   (2n+1) * log2(delta/epsilon) + O(n).  We return the explicit form used
   by experiment E1: each round costs at most two scans and one write
   (2n+1 steps), log2(delta/epsilon) rounds halve the spread below
   epsilon/2 (Lemma 3), and the O(n) term is instantiated as 3 extra
   rounds — the bottom-forced advance from round 1 to 2, the rounding
   slack in Lemma 3's telescoping, and the final verification scan —
   plus 2 steps for input. *)
let step_bound ~procs ~delta ~epsilon =
  let per_round = float_of_int ((2 * procs) + 1) in
  let rounds =
    if delta <= 0.0 then 0.0
    else Float.max 0.0 (Float.log (delta /. epsilon) /. Float.log 2.0)
  in
  ((rounds +. 3.0) *. per_round) +. 2.0

(* Lemma 6's lower bound: an adversary can force
   floor(log3(delta/epsilon)) steps — the powers 3, 9, 27, ... up to
   delta/epsilon, counted with a relative tolerance: at epsilon = 3^-5
   the quotient is 242.99999999999997, and a floored floating log3 says
   4. *)
let adversary_bound ~delta ~epsilon =
  let ratio = delta /. epsilon *. (1.0 +. 1e-9) in
  let rec count k power =
    if power *. 3.0 <= ratio then count (k + 1) (power *. 3.0) else k
  in
  if delta <= 0.0 then 0 else count 0 1.0
