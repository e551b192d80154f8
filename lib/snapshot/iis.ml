(* The iterated immediate snapshot (IIS) model, and approximate agreement
   inside it.

   Hoest and Shavit's tightness results — cited by the paper right after
   Lemma 6 ("log3(delta/eps) is in fact a tight bound for two processes,
   while log2(delta/eps) is tight for three or more") — live in this
   model: computation proceeds through a sequence of one-shot immediate
   snapshot objects; at each layer every process contributes its current
   value and moves on with the layer's view.  Each layer is a
   Borowsky-Gafni one-shot immediate snapshot ([Immediate_snapshot]).

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

module Make (M : Pram.Memory.VERSIONED) = struct
  module IS = Immediate_snapshot.Make (Float_value) (M)

  type t = { procs : int; layers : IS.t array }

  let create ~procs ~layers () =
    { procs; layers = Array.init layers (fun _ -> IS.create ~procs) }

  type handle = {
    pid : int;
    layer_handles : IS.handle array;  (* one session per layer, in order *)
  }

  let attach obj ctx =
    let pid = Runtime.Ctx.pid ctx in
    if pid >= obj.procs then
      invalid_arg
        (Printf.sprintf "Iis.attach: ctx pid %d but object has %d procs" pid
           obj.procs);
    { pid; layer_handles = Array.map (fun l -> IS.attach l ctx) obj.layers }

  (* Run all layers, updating the value with [rule : own:float ->
     view:(int * float) list -> float]; returns the final value. *)
  let run h ~rule v0 =
    Array.fold_left
      (fun v layer -> rule ~own:v ~view:(IS.participate layer v))
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
