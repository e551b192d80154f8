(** A hash-sharded keyed store of universal-construction instances with
    operation batching — the scale-out layer over {!Construction}.

    Each shard is one Figure 4 instance serving the keys that hash to
    it, so unrelated keys never share a precedence graph (or an anchor
    snapshot-array).  Handles additionally buffer submitted operations
    per key and fold each run of pending {e commuting} operations into
    one graph entry at {!Make.flush} — one snapshot plus one anchor
    update for the whole run — amortizing the O(n^2) synchronization of
    Section 5.4 across the batch.  Batches are validated against the
    declared [reads_only]/[commutes] relations (the same checks the
    incremental memo performs); an operation that breaks the check
    closes the current batch, falling back to singleton commits, so
    Property 1 holds for every published batch and Theorem 26 applies
    unchanged (DESIGN.md §12). *)

(** The keyed batch object a shard serves: states are finite maps from
    string keys to [O] states, an operation applies one batch of [O]
    operations atomically at its key.  The derived commute/overwrite
    relations are sound liftings of [O]'s (different keys always
    commute; same-key batches commute pairwise / overwrite via
    right-to-left elimination through the overwriter's head).  Exposed
    so tests can discharge Property 1 over generated batch universes
    with {!Construction.check_property1}. *)
module Batch_spec (O : Spec.Object_spec.S) :
  Spec.Object_spec.S
    with type operation = string * O.operation list
     and type response = O.response list

(** Pre-state computation of the underlying construction handles
    (see {!Construction.Make.mode}); [Incremental] is the default. *)
type mode = Incremental | Reference

(** [Batched n] folds runs of up to [n] compatible operations into one
    graph entry; [Unbatched] commits every operation as its own entry
    (the baseline the benches compare against). *)
type batching = Unbatched | Batched of int

module Make (O : Spec.Object_spec.S) (M : Pram.Memory.VERSIONED) : sig
  type t

  (** [create ~shards ~procs ()] allocates [shards] independent
      construction instances (default 8) on
      {!Construction.default_variant}.
      @raise Invalid_argument if [shards <= 0]. *)
  val create : ?shards:int -> procs:int -> unit -> t

  val shards : t -> int
  val procs : t -> int

  (** The shard serving [key]: deterministic across runs and processes
      (shard placement is a pure function of the key). *)
  val shard_of : t -> string -> int

  type handle

  (** Aggregated handle statistics: base [ops] committed, graph
      [entries] published for them, [batched_ops] committed in
      multi-operation entries, the [largest_batch] published,
      [fallbacks] (chunks closed early because the next operation broke
      the commute/read-only check), plus [spec_replays]/[rebuilds]
      summed over the underlying per-shard construction handles. *)
  type stats = {
    ops : int;
    entries : int;
    batched_ops : int;
    largest_batch : int;
    fallbacks : int;
    spec_replays : int;
    rebuilds : int;
  }

  (** [attach t ctx] mints process [Ctx.pid ctx]'s session with every
      shard.  [batching] defaults to [Batched 64]; [mode] to
      [Incremental].  The shards' scan variant is
      {!Construction.default_variant}, fixed at {!create}; [variant]
      can only restate it.  Batch fallbacks, memo rebuilds and drained
      queue depth are reported through {!Runtime.Ctx.causes} at the
      serving shard's family.
      @raise Invalid_argument
        if the context pid exceeds [t]'s procs, [Batched n] with
        [n < 2], [variant] is not the shards' variant, or the context's
        telemetry grid has fewer families than [t] has shards. *)
  val attach :
    ?mode:mode ->
    ?batching:batching ->
    ?variant:Snapshot.Scan.variant ->
    t ->
    Runtime.Ctx.t ->
    handle

  (** [execute h ~key op] commits [op] immediately as a singleton entry
      and returns its response.
      @raise Invalid_argument
        if [key] has pending submitted operations (flush first — the
        store never reorders one key's operations). *)
  val execute : handle -> key:string -> O.operation -> O.response

  (** [submit h ~key op] buffers [op] for [key]; nothing is published
      until {!flush}.  Per-key submission order is preserved. *)
  val submit : handle -> key:string -> O.operation -> unit

  (** Publish every pending operation — batched handles fold each key's
      run into maximal homogeneous chunks, unbatched handles commit
      singletons — and return the responses, keys in first-submit
      order, each key's responses in submission order. *)
  val flush : handle -> (string * O.response list) list

  (** Number of operations currently buffered (all keys). *)
  val pending_ops : handle -> int

  (** [query h ~key op] computes the response [op] would get from the
      {e committed} state at [key] without publishing an entry; pending
      (unflushed) operations are not visible.
      @raise Invalid_argument if [op] is not read-only. *)
  val query : handle -> key:string -> O.operation -> O.response

  (** Total precedence-graph entries reachable from this handle's
      current views, summed over shards — the quantity batching shrinks
      (test/bench introspection). *)
  val graph_entries : handle -> int

  val stats : handle -> stats
end
