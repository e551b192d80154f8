(* A linearizability checker in the style of Wing & Gould.

   Given a concurrent history (Section 3.2) and a sequential specification,
   decide whether the history can be extended (pending invocations either
   completed or dropped) and reordered into a legal sequential history that
   respects real-time precedence — the definition of linearizability in
   Section 3.2 of the paper.

   The search explores linearization prefixes.  At each node the candidate
   next operations are the calls all of whose real-time predecessors have
   already been linearized.  Completed calls must reproduce their recorded
   response; pending calls (e.g. from crashed processes) may either take
   effect (with the specification's response) or never take effect.

   Memoization prunes revisits: the future of a search node depends only on
   the set of linearized calls and the current abstract state.  States are
   keyed by their canonical printed form ([O.pp_state]), which our
   specifications guarantee to be canonical (equal states print equally);
   this avoids unsound polymorphic hashing of e.g. AVL-backed sets. *)

module Make (O : Spec.Object_spec.S) = struct
  type call = (O.operation, O.response) Spec.History.call

  type verdict =
    | Linearizable of call list  (** a witness order, linearized calls only *)
    | Not_linearizable

  let state_key s = Format.asprintf "%a" O.pp_state s

  (* The linearized set is a Bytes-backed bitmask, so histories of any
     length are supported (the search is exponential in the worst case,
     but sequential histories and the memoization keep common cases
     linear). *)
  let check_calls (calls : call array) : verdict =
    let n = Array.length calls in
    let memo : (string, unit) Hashtbl.t = Hashtbl.create 1024 in
    let mask_key mask s = Bytes.to_string mask ^ "|" ^ state_key s in
    let in_mask mask i =
      Char.code (Bytes.get mask (i lsr 3)) land (1 lsl (i land 7)) <> 0
    in
    let add_mask mask i =
      let mask' = Bytes.copy mask in
      Bytes.set mask' (i lsr 3)
        (Char.chr (Char.code (Bytes.get mask (i lsr 3)) lor (1 lsl (i land 7))));
      mask'
    in
    (* c is a candidate if not yet linearized and every call that
       really-precedes it is linearized. *)
    let candidate mask i =
      (not (in_mask mask i))
      && (let ok = ref true in
          for j = 0 to n - 1 do
            if (not (in_mask mask j)) && j <> i
               && Spec.History.precedes calls.(j) calls.(i)
            then ok := false
          done;
          !ok)
    in
    let complete_done mask =
      let ok = ref true in
      for i = 0 to n - 1 do
        if (not (in_mask mask i)) && not (Spec.History.is_pending calls.(i))
        then ok := false
      done;
      !ok
    in
    let rec search mask state acc =
      if complete_done mask then Some (List.rev acc)
      else
        let key = mask_key mask state in
        if Hashtbl.mem memo key then None
        else begin
          Hashtbl.add memo key ();
          let rec try_candidates i =
            if i = n then None
            else if not (candidate mask i) then try_candidates (i + 1)
            else
              let c = calls.(i) in
              let state', resp = O.apply state c.Spec.History.c_op in
              let take =
                match c.Spec.History.c_resp with
                | Some recorded ->
                    if O.equal_response recorded resp then
                      search (add_mask mask i) state' (c :: acc)
                    else None
                | None ->
                    (* pending: branch 1, it took effect *)
                    search (add_mask mask i) state' (c :: acc)
              in
              match take with
              | Some _ as witness -> witness
              | None -> try_candidates (i + 1)
          in
          try_candidates 0
        end
    in
    let empty_mask = Bytes.make ((n lsr 3) + 1) '\000' in
    match search empty_mask O.initial [] with
    | Some order -> Linearizable order
    | None -> Not_linearizable

  (* Note on pending calls: "never takes effect" is modeled implicitly —
     [complete_done] only requires completed calls to be linearized, and a
     pending call that is never chosen is simply dropped. *)

  let check events =
    let calls = Array.of_list (Spec.History.calls_of_events events) in
    check_calls calls

  let is_linearizable events =
    match check events with Linearizable _ -> true | Not_linearizable -> false

  type record = pid:int -> O.operation -> (unit -> O.response) -> O.response

  (* One run of [program] with a fresh recorder: its check and its
     rendered history read the events of this execution only. *)
  let instance program () =
    let r = Spec.History.Recorder.create () in
    let history () = Spec.History.Recorder.events r in
    {
      Pram.Explore.body = program (Spec.History.Recorder.record r);
      check = (fun _d _sched -> is_linearizable (history ()));
      pp_history =
        Some
          (fun ppf () ->
            Spec.History.pp O.pp_operation O.pp_response ppf (history ()));
    }

  let search_check ~way ?jobs ?shrink ?max_schedules ?max_crashes ~procs
      program =
    Pram.Explore.search_check ~way ?jobs ?shrink ?max_schedules ?max_crashes
      ~procs (instance program)

  (* Replay an encoded (counterexample) schedule with a tracing journal
     attached: the driver observer streams accesses, the [record] given
     to [program] streams invoke/response events, and crashes are marked
     from the schedule — all into one journal, so the timeline and
     Chrome renderings show the operations AND the accesses they fired,
     in the exact interleaved order. *)
  let trace_counterexample ?completion_fuel ~procs program enc =
    let j = Tracing.Journal.create ~procs () in
    let r = Spec.History.Recorder.create () in
    let record ~pid op run =
      Spec.History.Recorder.record r ~pid op (fun () ->
          Tracing.Journal.invoke j ~pid
            (Format.asprintf "%a" O.pp_operation op);
          let resp = run () in
          Tracing.Journal.response j ~pid
            (Format.asprintf "%a" O.pp_response resp);
          resp)
    in
    let _, schedule =
      Pram.Explore.replay_encoded ~observer:(Tracing.Journal.observer j)
        ~on_crash:(fun p -> Tracing.Journal.crash j ~pid:p)
        ?completion_fuel ~procs
        (fun () -> program record)
        enc
    in
    (Tracing.archive ~schedule j, Spec.History.Recorder.events r)
end
