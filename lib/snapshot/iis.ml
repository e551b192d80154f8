(* The iterated immediate snapshot (IIS) model, and approximate agreement
   inside it.

   Hoest and Shavit's tightness results — cited by the paper right after
   Lemma 6 ("log3(delta/eps) is in fact a tight bound for two processes,
   while log2(delta/eps) is tight for three or more") — live in this
   model: computation proceeds through a sequence of one-shot immediate
   snapshot objects; at each layer every process contributes its current
   value and moves on with the layer's view.

   Since PR 10 a layer can also be a one-shot use of the scan-based
   atomic snapshot ([Snapshot_array]), selected per chain by
   [layer_kind].  An atomic-snapshot layer keeps self-inclusion and
   containment (slots flip once from absent to present, and scans
   linearize, so any two views are inclusion-ordered) but NOT immediacy
   — q's pair in p's view no longer implies q's view is inside p's.
   Midpoint agreement only needs containment, so the log2 rate
   survives; the two-process two-thirds rule leans on immediacy and is
   only guaranteed its log3 rate on [Immediate] layers.  The point of
   [Snapshot (Scan.Lattice)] layers is cost: O(n log n) accesses per
   layer instead of the O(n^2) of both the Borowsky-Gafni levels
   algorithm and the classic scan (experiment E11 reports both).

   [Agreement] runs approximate agreement in IIS with two update rules:

   - [Two_proc_optimal] (n = 2): on seeing the other's value, move
     two-thirds of the way toward it.  Every layer then shrinks the gap
     by EXACTLY 3, whatever the adversary does: if only p sees both,
     the new gap is |x - (y + 2(x-y)/3)| = gap/3; symmetrically for q;
     and if both see both they cross over to points gap/3 apart.  Hence
     ceil(log3(delta/eps)) layers are exactly enough — the Hoest-Shavit
     constant, realized (experiment E11).

   - [Midpoint] (any n): move to the midpoint of the view's range; the
     containment property gives a factor-2 shrink per layer, matching
     the log2 upper bound of Theorem 5's style of analysis. *)

module Float_value = struct
  type t = float

  let default = 0.0
  let equal = Float.equal
  let pp = Format.pp_print_float
end

(* Slot payload for atomic-snapshot layers: [None] marks a process that
   has not reached this layer yet, so views can be read off a plain
   snapshot. *)
module Float_opt_value = struct
  type t = float option

  let default = None
  let equal = Option.equal Float.equal

  let pp ppf = function
    | None -> Format.pp_print_string ppf "_"
    | Some f -> Format.pp_print_float ppf f
end

type layer_kind = Immediate | Snapshot of Scan.variant

module Make (M : Pram.Memory.VERSIONED) = struct
  module IS = Immediate_snapshot.Make (Float_value) (M)
  module SA = Snapshot_array.Make (Float_opt_value) (M)

  type layer = Imm of IS.t | Snap of SA.t

  type t = { procs : int; kind : layer_kind; layers : layer array }

  let create ?(layer = Immediate) ~procs ~layers () =
    let mk _ =
      match layer with
      | Immediate -> Imm (IS.create ~procs)
      | Snapshot variant -> Snap (SA.create ~variant ~procs)
    in
    { procs; kind = layer; layers = Array.init layers mk }

  let layer_count t = Array.length t.layers
  let layer_kind t = t.kind

  type layer_handle = Imm_h of IS.handle | Snap_h of SA.handle

  type handle = {
    pid : int;
    layer_handles : layer_handle array;  (* one session per layer, in order *)
  }

  let attach obj ctx =
    let pid = Runtime.Ctx.pid ctx in
    if pid >= obj.procs then
      invalid_arg
        (Printf.sprintf "Iis.attach: ctx pid %d but object has %d procs" pid
           obj.procs);
    let attach_layer = function
      | Imm l -> Imm_h (IS.attach l ctx)
      | Snap l -> Snap_h (SA.attach l ctx)
    in
    { pid; layer_handles = Array.map attach_layer obj.layers }

  (* One layer's contribute-and-view step; one-shot per process per
     layer, like the immediate snapshot it generalizes. *)
  let participate lh v =
    match lh with
    | Imm_h l -> IS.participate l v
    | Snap_h l ->
        SA.update l (Some v);
        let view = SA.snapshot l in
        (* self-inclusion: our own update is joined into our scan *)
        List.filter_map Fun.id
          (List.init (Array.length view) (fun q ->
               Option.map (fun w -> (q, w)) view.(q)))

  (* Run all layers, updating the value with [rule : own:float ->
     view:(int * float) list -> float]; returns the final value. *)
  let run h ~rule v0 =
    Array.fold_left
      (fun v layer ->
        let view = participate layer v in
        rule ~own:v ~view)
      v0 h.layer_handles

  (* n = 2 only: the optimal rule (move 2/3 toward the other). *)
  let two_proc_optimal h =
    fun ~own ~view ->
      match List.filter (fun (q, _) -> q <> h.pid) view with
      | [] -> own
      | (_, other) :: _ -> own +. ((other -. own) *. 2.0 /. 3.0)

  (* any n: midpoint of the view's range. *)
  let midpoint ~own ~view =
    let values = own :: List.map snd view in
    let lo = List.fold_left Float.min infinity values in
    let hi = List.fold_left Float.max neg_infinity values in
    (lo +. hi) /. 2.0

  (* Layers sufficient for gap [delta] and slack [epsilon]:
     ceil(log_base(delta/epsilon)). *)
  let layers_needed ~base ~delta ~epsilon =
    if delta <= epsilon then 0
    else
      int_of_float
        (Float.ceil (Float.log (delta /. epsilon) /. Float.log base))
end
