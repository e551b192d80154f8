(* Directed graphs with incremental transitive closure, sized for the
   lingraph construction (Figure 3), which interleaves edge insertions
   with "would this edge create a cycle?" queries.

   The closure is maintained as one bitset per node (reachable-from sets),
   updated on every insertion: adding u -> v unions v's closure into the
   closure of every node that reaches u.  Insertion is O(V^2 / 64) worst
   case; path queries are O(1).  Graph sizes here are the number of
   operations ever applied to one object, so this comfortably handles the
   workloads of the tests and benches. *)

module Bitset = struct
  type t = int array

  let words n = (n + 62) / 63
  let create n = Array.make (words n) 0
  let mem t i = t.(i / 63) land (1 lsl (i mod 63)) <> 0
  let add t i = t.(i / 63) <- t.(i / 63) lor (1 lsl (i mod 63))

  (* a := a | b; returns true if a changed *)
  let union_into a b =
    let changed = ref false in
    for w = 0 to Array.length a - 1 do
      let v = a.(w) lor b.(w) in
      if v <> a.(w) then begin
        a.(w) <- v;
        changed := true
      end
    done;
    !changed
end

type t = {
  nodes : int;
  succ : int list array;  (* direct successors, for topological sort *)
  in_degree : int array;
  reach : Bitset.t array;  (* reach.(u) = nodes reachable from u, u excluded *)
}

let create nodes =
  {
    nodes;
    succ = Array.make nodes [];
    in_degree = Array.make nodes 0;
    reach = Array.init nodes (fun _ -> Bitset.create nodes);
  }

let has_path t u v = if u = v then true else Bitset.mem t.reach.(u) v

(* Precondition: does not create a cycle (caller checks [has_path v u]). *)
let add_edge t u v =
  if u = v then invalid_arg "Graph.add_edge: self loop";
  t.succ.(u) <- v :: t.succ.(u);
  t.in_degree.(v) <- t.in_degree.(v) + 1;
  if not (Bitset.mem t.reach.(u) v) then begin
    (* every node reaching u (plus u itself) now also reaches v and
       everything v reaches *)
    let delta = Bitset.create t.nodes in
    ignore (Bitset.union_into delta t.reach.(v));
    Bitset.add delta v;
    for w = 0 to t.nodes - 1 do
      if w = u || Bitset.mem t.reach.(w) u then
        ignore (Bitset.union_into t.reach.(w) delta)
    done
  end

let edge_would_cycle t u v = has_path t v u

(* Deterministic topological sort: Kahn's algorithm always choosing the
   smallest-index ready node.  Determinism matters: every process must
   linearize the same graph identically (Section 5.4's correctness
   depends on processes telling a consistent story). *)
let topo_sort t =
  let deg = Array.copy t.in_degree in
  let module IS = Set.Make (Int) in
  let ready = ref IS.empty in
  for v = 0 to t.nodes - 1 do
    if deg.(v) = 0 then ready := IS.add v !ready
  done;
  let rec loop acc =
    match IS.min_elt_opt !ready with
    | None -> List.rev acc
    | Some v ->
        ready := IS.remove v !ready;
        List.iter
          (fun w ->
            deg.(w) <- deg.(w) - 1;
            if deg.(w) = 0 then ready := IS.add w !ready)
          t.succ.(v);
        loop (v :: acc)
  in
  let sorted = loop [] in
  if List.length sorted <> t.nodes then
    invalid_arg "Graph.topo_sort: graph has a cycle";
  sorted

(* A randomized topological sort (Kahn choosing uniformly among ready
   nodes) — used by the Lemma 20 tests to sample many linearizations of
   the same linearization graph and check they are all equivalent. *)
let topo_sort_seeded t ~seed =
  let rng = Random.State.make [| seed; t.nodes |] in
  let deg = Array.copy t.in_degree in
  let ready = ref [] in
  for v = t.nodes - 1 downto 0 do
    if deg.(v) = 0 then ready := v :: !ready
  done;
  let rec loop acc =
    match !ready with
    | [] -> List.rev acc
    | l ->
        let i = Random.State.int rng (List.length l) in
        let v = List.nth l i in
        ready := List.filteri (fun j _ -> j <> i) l;
        List.iter
          (fun w ->
            deg.(w) <- deg.(w) - 1;
            if deg.(w) = 0 then ready := w :: !ready)
          t.succ.(v);
        loop (v :: acc)
  in
  let sorted = loop [] in
  if List.length sorted <> t.nodes then
    invalid_arg "Graph.topo_sort_seeded: graph has a cycle";
  sorted
