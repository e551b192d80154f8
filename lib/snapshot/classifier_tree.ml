(* The classifier tree of Attiya and Rachman, shared by one-shot lattice
   agreement and the Lattice scan.

   Vertex (depth d, index i) splits the pid-count interval it covers,
   [procs i / 2^d, procs (i+1) / 2^d], at its midpoint
   procs (2i+1) / 2^(d+1): a process whose union holds more pids than
   that goes right with the union, the others go left with their own
   map.  Slots are single-writer and written at most once per stamp, so
   the set of posted maps at a vertex only grows: everything a
   left-exiter posted is in every right-exiter's union, and the left
   side never holds more pids than the threshold.  Depth by depth this
   orders all agreed maps by inclusion.

   A slot holds [Some (stamp, map)]; readers drop posts of other stamps,
   so a stamp names a fresh tree over the same registers.  Each post and
   each slot read is exactly one access of [M]. *)

let levels ~procs =
  let rec go l = if 1 lsl l >= procs then l else go (l + 1) in
  go 0

module Make (M : Pram.Memory.S) = struct
  type 'a t = {
    procs : int;
    slots : (int * 'a option array) option M.reg array array array;
        (* slots.(depth).(index).(pid), written by pid alone *)
  }

  let create ~name ~procs =
    if procs <= 0 then
      invalid_arg "Classifier_tree.create: procs must be positive";
    {
      procs;
      slots =
        Array.init (levels ~procs) (fun d ->
            Array.init (1 lsl d) (fun i ->
                Array.init procs (fun p ->
                    M.create ~name:(Printf.sprintf "%s[%d][%d][%d]" name d i p)
                      None)));
    }

  (* First wins: a pid's payload is fixed under one stamp, so an entry
     already in [u] is the one [m] would bring. *)
  let merge u m =
    Array.iteri
      (fun q e -> match (e, u.(q)) with Some _, None -> u.(q) <- e | _ -> ())
      m

  let cardinal m =
    Array.fold_left (fun n e -> if Option.is_some e then n + 1 else n) 0 m

  let descend t ~stamp ~pid own =
    if Array.length own <> t.procs || Option.is_none own.(pid) then
      invalid_arg
        "Classifier_tree.descend: own must be a procs-long map holding pid";
    let rec go depth index m =
      if depth = Array.length t.slots then m
      else begin
        let vertex = t.slots.(depth).(index) in
        M.write vertex.(pid) (Some (stamp, m));
        (* a posted map is never mutated: native readers see it as is *)
        let u = Array.copy m in
        Array.iter
          (fun slot ->
            match M.read slot with
            | Some (s, mq) when s = stamp -> merge u mq
            | _ -> ())
          vertex;
        if cardinal u lsl (depth + 1) > t.procs * ((2 * index) + 1) then
          go (depth + 1) ((2 * index) + 1) u
        else go (depth + 1) (2 * index) m
      end
    in
    go 0 0 own
end
