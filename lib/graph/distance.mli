(** Symbolic dependence-distance analysis over aligned subscript pairs.

    Solves [a_d*i + r_d = a_u*j + r_u] for the iteration distance
    [j - i] between a write and a read of the same array dimension,
    where both subscripts are in the [Label.Affine] / [Label.Linear]
    classes.  Positive distances are forward (read after write), the
    verifier's convention.  Classification uses an exact linear solve,
    the GCD test, and a Banerjee-style bounds (disjointness) test. *)

type t =
  | Exact of int          (** distance is this known constant *)
  | Form of Ps_sem.Linexpr.t
      (** distance is this expression over scalar parameters *)
  | Independent           (** provably never the same element *)
  | Unknown               (** the solver cannot classify the pair *)

val gcd : int -> int -> int
(** Non-negative greatest common divisor; [gcd 0 0 = 0]. *)

val facts : Ps_sem.Stypes.subrange list -> Ps_sem.Linexpr.t list
(** Non-emptiness facts [hi - lo >= 0] of the given subranges, suitable
    as [assumptions] for the bounds test. *)

val bounds_of_subrange :
  Ps_sem.Stypes.subrange -> (Ps_sem.Linexpr.t * Ps_sem.Linexpr.t) option
(** The subrange's bounds as linear forms, when they are linear. *)

val solve :
  ?bounds:Ps_sem.Linexpr.t * Ps_sem.Linexpr.t ->
  ?assumptions:Ps_sem.Linexpr.t list ->
  def:Label.sub_exp ->
  use:Label.sub_exp ->
  unit ->
  t
(** The dependence distance from the defining subscript to the using
    subscript.  [bounds] are the shared loop index's bounds (enabling
    the disjointness test), [assumptions] the subrange facts. *)

val group_modulus : t list -> int option
(** The gcd of a set of exact carried distances — the modulus of the
    residue-class partition they all respect.  [Some 0] when the list
    proves no carried dependence; [None] when a distance is symbolic or
    unknown. *)

val pp : t Fmt.t
