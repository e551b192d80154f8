(** The wait-free hierarchy experiments (Theorems 7 and 8) — row
    generators consumed by experiments E2, E3, E4 and E8. *)

type row = {
  k : int;  (** hierarchy level: epsilon = 3^-k (0 for Theorem 8 rows) *)
  epsilon : float;
  delta : float;  (** input diameter *)
  lower_bound : int;  (** floor(log3(delta/epsilon)), Lemma 6 *)
  forced : int;  (** steps actually forced (max over processes) *)
  upper_bound : float;  (** Theorem 5's K *)
  agreement_ok : bool;
      (** the attacked execution still satisfied Figure 1's spec *)
}

(** One Theorem 7 row: unit-interval inputs, epsilon = 3^-k, two
    processes attacked by the faithful Lemma 6 adversary. *)
val theorem7_row : int -> row

(** One Theorem 8 row: fixed epsilon = 1, inputs spanning [delta]. *)
val theorem8_row : delta:float -> row

(** [(forced steps, adversary iterations)] under the greedy adversary,
    for the E8 two-vs-three-process comparison. *)
val greedy_forced : procs:int -> epsilon:float -> int * int

(**/**)

val check_outputs :
  epsilon:float -> lo:float -> hi:float -> float array -> bool
