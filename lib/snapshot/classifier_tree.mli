(** The Attiya-Rachman classifier tree, the one tree behind both
    one-shot lattice agreement ({!Lattice_agreement.Classifier}) and the
    [Lattice] scan ({!Scan}).

    A process descends a binary tree of depth {!levels}.  At each vertex
    it posts its current map into its own slot, reads every slot, and
    unions the maps posted under its own stamp; it goes right, adopting
    the union, when the union's domain exceeds the vertex threshold (the
    midpoint of the vertex's interval of [0, procs]), and left, keeping
    its map, otherwise.  Slots are write-once per stamp, so the posted
    domains grow monotonically, which gives the classifier property: a
    left-exiter's map is contained in every right-exiter's, and agreed
    domains are ordered by inclusion.

    A map is an ['a option array] indexed by pid; its domain is the
    agreed pid-set and its entries are the contributors' payloads.  A
    pid's payload is fixed under one stamp, so the union keeps the first
    entry it sees.  A slot holds one [(stamp, map)] post; a reader with
    another stamp sees it as empty, so one set of registers serves an
    unbounded sequence of logically fresh trees, one per stamp. *)

(** [ceil(log2 procs)]: the depth of the tree.  A descent visits one
    vertex per level, posting once and reading all [procs] slots there. *)
val levels : procs:int -> int

module Make (M : Pram.Memory.S) : sig
  type 'a t

  (** [create ~name ~procs] allocates the slots depth by depth, then
      index by index, then pid by pid, naming each [name[d][i][p]].
      @raise Invalid_argument if [procs <= 0]. *)
  val create : name:string -> procs:int -> 'a t

  (** [descend t ~stamp ~pid own] runs process [pid]'s descent under
      [stamp] from its map [own] and returns the agreed map: exactly
      [levels ~procs] posts and [procs] slot reads per level.  [own] is
      posted as is and must not be mutated afterwards; [pid] posts at
      most once per stamp.
      @raise Invalid_argument
        if [own] is not a [procs]-long map holding [pid]. *)
  val descend :
    'a t -> stamp:int -> pid:int -> 'a option array -> 'a option array
end
