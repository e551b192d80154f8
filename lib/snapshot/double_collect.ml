(* The "double collect" snapshot: collect all n tagged slots repeatedly
   until two successive collects are identical; a pair of equal collects
   is a valid atomic view (every slot held its value throughout the
   second collect).

   Tags (per-writer sequence numbers) defeat ABA: a slot rewritten to the
   same value still changes its tag.

   This algorithm is linearizable but only LOCK-FREE, not wait-free: an
   adversary that keeps scheduling writers between a reader's collects
   starves the reader forever.  It is the baseline that motivates both
   the paper's Section 6 algorithm and the Afek et al. helping technique
   ([Afek]); experiment E7 and the starvation test exercise exactly this
   contrast. *)

module Make
    (V : Slot_value.S)
    (M : Pram.Memory.S) =
struct
  type slot = { tag : int; value : V.t }

  type t = { procs : int; slots : slot M.reg array; seq : int array }

  let create ~procs =
    {
      procs;
      slots =
        Array.init procs (fun p ->
            M.create ~name:(Printf.sprintf "dc_slot[%d]" p)
              { tag = 0; value = V.default });
      seq = Array.make procs 0;
    }

  type handle = { obj : t; pid : int; ctx : Runtime.Ctx.t }

  let attach obj ctx =
    let pid = Runtime.Ctx.pid ctx in
    if pid >= obj.procs then
      invalid_arg
        (Printf.sprintf
           "Double_collect.attach: ctx pid %d but object has %d procs" pid
           obj.procs);
    { obj; pid; ctx }

  let update h v =
    let t = h.obj in
    t.seq.(h.pid) <- t.seq.(h.pid) + 1;
    M.write t.slots.(h.pid) { tag = t.seq.(h.pid); value = v }

  let collect t = Array.map M.read t.slots

  let same_collect a b =
    Array.for_all2 (fun x y -> x.tag = y.tag) a b

  (* Unbounded retry loop; [max_rounds] is a watchdog for tests that
     deliberately starve it. *)
  let snapshot ?(max_rounds = max_int) h =
    let t = h.obj in
    let rec loop prev rounds =
      if rounds = 0 then None
      else
        let cur = collect t in
        if same_collect prev cur then Some (Array.map (fun s -> s.value) cur)
        else begin
          Runtime.Ctx.cause h.ctx ~family:0
            Telemetry.Event.Double_collect_restart;
          loop cur (rounds - 1)
        end
    in
    let first = collect t in
    loop first max_rounds

  let snapshot_exn ?max_rounds h =
    match snapshot ?max_rounds h with
    | Some view -> view
    | None -> failwith "Double_collect.snapshot: starved (not wait-free)"
end
