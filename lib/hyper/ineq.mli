(** Dependence-inequality extraction (paper §4).

    For a recursively defined array A, every self-reference
    [A[x1 + o1, ..., xn + on]] in the equation defining [A[x1, ..., xn]]
    induces the inequality [a . d > 0] on the time coefficients, with
    [d = -o] the dependence difference vector. *)

exception Not_applicable of string
(** The transformation's preconditions fail (no recursive definition,
    non-affine references, fixed subscripts on the defining occurrence,
    several recursive equations, ...). *)

type dependences = {
  dep_eq : Ps_sem.Elab.eq;              (** the recursive equation *)
  dep_indices : Ps_sem.Elab.index list; (** its defining indices, in order *)
  dep_vectors : int array list;         (** distinct difference vectors *)
}

val extract : Ps_sem.Elab.emodule -> target:string -> dependences
(** @raise Not_applicable when the preconditions fail. *)

val offset_vector :
  Ps_sem.Elab.index list -> Ps_lang.Ast.expr list -> int array option
(** Offsets of one reference relative to the defining indices, when every
    subscript has the form [var_p + c]. *)

val pp_inequality : int array Fmt.t
(** Render a difference vector as the paper writes it: "a - b > 0". *)
