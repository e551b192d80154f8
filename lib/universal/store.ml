(* A hash-sharded keyed store of universal-construction instances, with
   operation batching over Property 1.

   Scale-out of Figure 4 along two independent axes:

   - Sharding.  One construction instance per shard; a key's operations
     only ever enter its shard's precedence graph, so unrelated keys
     never pay for each other's history (and never contend on the same
     anchor snapshot-array).
   - Batching.  Each handle buffers submitted operations per key and, at
     flush, folds a run of pending operations into ONE graph entry — one
     snapshot plus one anchor update for the whole run — amortizing the
     O(n^2) synchronization cost of Section 5.4 across the batch.  This
     is the flat-combining idea (Hendler-Incze-Shavit-Tzafrir) recast in
     the paper's own algebra: a run is foldable exactly when it is
     reorder-safe under the declared relations.

   Soundness of batching (DESIGN.md §12).  A shard's object is the
   keyed batch object [Batch_spec (O)]: states are finite maps from
   keys to O-states and an operation is one batch [(key, ops)] applied
   atomically at its key.  The derived relations are only claimed when
   they follow from O's:

   - batches at different keys always commute (they touch disjoint map
     entries and their responses depend only on their own key's state);
   - same-key batches commute when every cross pair commutes (block
     transposition by adjacent commuting swaps);
   - [b2] overwrites [b1] when every element of [b1] is read-only (a
     state-preserving prefix can be dropped) or is overwritten by the
     head of [b2] (right-to-left elimination makes each such element
     adjacent to that head).

   The flush-time chunking policy only ever publishes batches that are
   homogeneous — all read-only, or pairwise-commuting mutators — and
   falls back to singleton (unbatched) commits the moment an operation
   breaks that check, so a base spec satisfying Property 1 with
   class-uniform overwriters (every shipped spec does) yields batch
   pairs that satisfy Property 1 again, and Theorem 26 applies to the
   shard object unchanged.  test/test_store.ml re-checks this with
   [Construction.check_property1] over policy-generated batch universes
   and pins batched == unbatched == sequential-spec outcomes under DPOR
   and random ways. *)

module Smap = Map.Make (String)

module Batch_spec (O : Spec.Object_spec.S) = struct
  type state = O.state Smap.t
  type operation = string * O.operation list
  type response = O.response list

  let initial = Smap.empty
  let state_at m key = Option.value (Smap.find_opt key m) ~default:O.initial

  let apply m (key, ops) =
    let s', rev_resps =
      List.fold_left
        (fun (s, acc) op ->
          let s', r = O.apply s op in
          (s', r :: acc))
        (state_at m key, [])
        ops
    in
    (* never store an initial-equal state: map states stay canonical, so
       [equal_state] and [pp_state] agree with history equivalence *)
    let m' =
      if O.equal_state s' O.initial then Smap.remove key m
      else Smap.add key s' m
    in
    (m', List.rev rev_resps)

  let commutes (k1, b1) (k2, b2) =
    k1 <> k2
    || List.for_all (fun p -> List.for_all (fun q -> O.commutes p q) b2) b1

  let overwrites (k2, b2) (k1, b1) =
    k1 = k2
    &&
    match b2 with
    | [] -> List.for_all O.reads_only b1
    | q1 :: _ ->
        List.for_all (fun p -> O.reads_only p || O.overwrites q1 p) b1

  let reads_only (_k, b) = List.for_all O.reads_only b
  let equal_state = Smap.equal O.equal_state
  let equal_response = List.equal O.equal_response

  let pp_ops ppf b =
    Format.fprintf ppf "[%a]"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ";")
         O.pp_operation)
      b

  let pp_operation ppf (k, b) = Format.fprintf ppf "%s:%a" k pp_ops b

  let pp_response ppf rs =
    Format.fprintf ppf "[%a]"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ";")
         O.pp_response)
      rs

  (* [Smap.iter] visits keys in ascending order and per-key states are
     canonical by construction, so equal states print equally. *)
  let pp_state ppf m =
    Format.pp_print_string ppf "{";
    let first = ref true in
    Smap.iter
      (fun k s ->
        if not !first then Format.pp_print_string ppf ", ";
        first := false;
        Format.fprintf ppf "%s=%a" k O.pp_state s)
      m;
    Format.pp_print_string ppf "}"
end

type mode = Incremental | Reference
type batching = Unbatched | Batched of int

module Make (O : Spec.Object_spec.S) (M : Pram.Memory.VERSIONED) = struct
  module B = Batch_spec (O)
  module U = Construction.Make (B) (M)

  type t = { shards : U.t array; procs : int }

  let create ?(shards = 8) ~procs () =
    if shards <= 0 then invalid_arg "Store.create: shards must be positive";
    { shards = Array.init shards (fun _ -> U.create ~procs ()); procs }

  let shards t = Array.length t.shards
  let procs t = t.procs

  (* [Hashtbl.hash] on strings is deterministic across runs and
     processes, so shard placement — and therefore every precedence
     graph — is reproducible from the workload alone. *)
  let shard_of t key = Hashtbl.hash key mod Array.length t.shards

  type handle = {
    store : t;
    ctx : Runtime.Ctx.t;
    uhs : U.handle array;  (** one construction session per shard *)
    max_batch : int;  (** 1 = unbatched *)
    pending : (string, O.operation list ref) Hashtbl.t;  (** reversed *)
    mutable rev_key_order : string list;  (** first-submit order, reversed *)
    mutable h_ops : int;
    mutable h_entries : int;
    mutable h_batched_ops : int;
    mutable h_largest_batch : int;
    mutable h_fallbacks : int;
  }

  type stats = {
    ops : int;
    entries : int;
    batched_ops : int;
    largest_batch : int;
    fallbacks : int;
    spec_replays : int;
    rebuilds : int;
  }

  let attach ?(mode = Incremental) ?(batching = Batched 64) ?variant t ctx =
    (match batching with
    | Batched n when n < 2 ->
        invalid_arg "Store.attach: Batched max size must be >= 2"
    | _ -> ());
    (match variant with
    | Some v when v <> Construction.default_variant ->
        invalid_arg "Store.attach: the shards' scan variant is fixed at create"
    | _ -> ());
    let umode =
      match mode with
      | Incremental -> U.Incremental
      | Reference -> U.Reference
    in
    (* causes are attributed to their shard: a grid that cannot
       attribute every shard fails here, not deep inside a flush *)
    (match Runtime.Ctx.telemetry ctx with
    | Some c when Telemetry.Counters.families c < Array.length t.shards ->
        invalid_arg
          (Printf.sprintf
             "Store.attach: telemetry grid has %d families, store has %d \
              shards"
             (Telemetry.Counters.families c)
             (Array.length t.shards))
    | _ -> ());
    {
      store = t;
      ctx;
      uhs = Array.map (fun u -> U.attach ~mode:umode u ctx) t.shards;
      max_batch = (match batching with Unbatched -> 1 | Batched n -> n);
      pending = Hashtbl.create 16;
      rev_key_order = [];
      h_ops = 0;
      h_entries = 0;
      h_batched_ops = 0;
      h_largest_batch = 0;
      h_fallbacks = 0;
    }

  (* Attribute to [shard] the rebuilds its construction handle performed
     since it counted [before] — read around each call into the shard,
     so the count is two integer reads and nothing is allocated. *)
  let note_rebuilds h ~shard ~before =
    let d = U.rebuilds h.uhs.(shard) - before in
    if d > 0 then
      Runtime.Ctx.causes h.ctx ~family:shard Telemetry.Event.Store_rebuild d

  let commit_batch h ~shard key ops =
    let n = List.length ops in
    h.h_ops <- h.h_ops + n;
    h.h_entries <- h.h_entries + 1;
    if n > 1 then h.h_batched_ops <- h.h_batched_ops + n;
    if n > h.h_largest_batch then h.h_largest_batch <- n;
    let u = h.uhs.(shard) in
    let before = U.rebuilds u in
    let resps = U.execute u (key, ops) in
    note_rebuilds h ~shard ~before;
    resps

  (* Greedy homogeneous chunking of one key's pending run: a chunk is
     either all read-only or all mutators that pairwise commute (checked
     against the declared relations, exactly the reads_only/commutes
     tests the incremental memo performs on its committed prefix).  The
     first operation that breaks the check closes the chunk — the
     Property 1 fallback: it restarts accumulation, degenerating to
     singleton (unbatched) commits on hostile runs.  [max_batch] caps
     chunk length without counting as a fallback. *)
  let chunks_of h ~shard ops =
    let close chunk acc = if chunk = [] then acc else List.rev chunk :: acc in
    (* [len] is [List.length chunk], carried so the cap check is O(1) *)
    let rec go acc chunk len kind = function
      | [] -> List.rev (close chunk acc)
      | op :: rest ->
          let ro = O.reads_only op in
          let compatible =
            match kind with
            | `Ro -> ro
            | `Mu ->
                (not ro) && List.for_all (fun q -> O.commutes q op) chunk
          in
          if len > 0 && len < h.max_batch && compatible then
            go acc (op :: chunk) (len + 1) kind rest
          else begin
            if len > 0 && h.max_batch > 1 && len < h.max_batch then begin
              h.h_fallbacks <- h.h_fallbacks + 1;
              Runtime.Ctx.cause h.ctx ~family:shard
                Telemetry.Event.Store_batch_fallback
            end;
            go (close chunk acc) [ op ] 1 (if ro then `Ro else `Mu) rest
          end
    in
    go [] [] 0 `Ro ops

  let submit h ~key op =
    match Hashtbl.find_opt h.pending key with
    | Some r -> r := op :: !r
    | None ->
        Hashtbl.add h.pending key (ref [ op ]);
        h.rev_key_order <- key :: h.rev_key_order

  let pending_ops h =
    Hashtbl.fold (fun _ r acc -> acc + List.length !r) h.pending 0

  let flush h =
    let keys = List.rev h.rev_key_order in
    h.rev_key_order <- [];
    List.map
      (fun key ->
        let ops = List.rev !(Hashtbl.find h.pending key) in
        Hashtbl.remove h.pending key;
        let shard = shard_of h.store key in
        Runtime.Ctx.causes h.ctx ~family:shard
          Telemetry.Event.Shard_queue_depth (List.length ops);
        let resps =
          List.concat_map (fun chunk -> commit_batch h ~shard key chunk)
            (chunks_of h ~shard ops)
        in
        (key, resps))
      keys

  let execute h ~key op =
    if Hashtbl.mem h.pending key then
      invalid_arg
        "Store.execute: key has pending submitted operations (flush first)";
    match commit_batch h ~shard:(shard_of h.store key) key [ op ] with
    | [ r ] -> r
    | _ -> assert false

  (* A query commits nothing, but catching up may still rebuild the
     shard's memo; that rebuild is attributed here. *)
  let query h ~key op =
    if not (O.reads_only op) then
      invalid_arg "Store.query: operation is not read-only";
    let shard = shard_of h.store key in
    let before = U.rebuilds h.uhs.(shard) in
    let resps = U.query h.uhs.(shard) (key, [ op ]) in
    note_rebuilds h ~shard ~before;
    match resps with [ r ] -> r | _ -> assert false

  let graph_entries h =
    Array.fold_left (fun acc u -> acc + U.history_size u) 0 h.uhs

  let stats h =
    let spec_replays, rebuilds =
      Array.fold_left
        (fun (sr, rb) u ->
          let s = U.stats u in
          (sr + s.U.spec_replays, rb + s.U.rebuilds))
        (0, 0) h.uhs
    in
    {
      ops = h.h_ops;
      entries = h.h_entries;
      batched_ops = h.h_batched_ops;
      largest_batch = h.h_largest_batch;
      fallbacks = h.h_fallbacks;
      spec_replays;
      rebuilds;
    }
end
