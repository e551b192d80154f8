(** Directed graphs with incremental transitive closure, sized for the
    Figure 3 lingraph construction: edge insertions interleaved with
    O(1) "is there a path?" / "would this edge close a cycle?" queries.

    Insertion maintains one reachability bitset per node, costing
    O(V^2/word) worst case; node counts here are the number of
    operations in one object's history.  This is the dominant local cost
    of a from-scratch linearization ({!Construction.Make.Reference}
    mode); the incremental mode exists precisely to rebuild this closure
    only when a merge cannot be proven safe. *)

type t

(** [create n]: [n] nodes ([0 .. n-1]), no edges. *)
val create : int -> t

(** Precondition: must not create a cycle (check {!edge_would_cycle}).
    @raise Invalid_argument on self-loops. *)
val add_edge : t -> int -> int -> unit

(** Reflexive-transitive reachability. *)
val has_path : t -> int -> int -> bool

(** [edge_would_cycle t u v]: would adding [u -> v] close a cycle
    (i.e. does a path [v -> u] exist)? *)
val edge_would_cycle : t -> int -> int -> bool

(** Deterministic topological sort (Kahn, smallest ready node first) —
    every process linearizes the same graph identically, which
    Section 5.4's consistency argument requires.
    @raise Invalid_argument if the graph has a cycle. *)
val topo_sort : t -> int list

(** A seeded random topological sort — used by the Lemma 20 tests to
    sample distinct linearizations of one linearization graph. *)
val topo_sort_seeded : t -> seed:int -> int list

