(** The restructuring transformation of paper §4.

    Changes coordinates with the unimodular matrix T whose first row is
    the least time vector: a new array A' with [A'[T.x] = A[x]] replaces
    A, every definition of A is folded into one guarded equation defining
    A' over its bounding box, and every reference [A[e]] becomes
    [A'[T.e]].  Recurrence reads [A[x - d]] become [A'[y - T.d]]:
    constant offsets carried only by the time axis, so re-scheduling
    yields an outer DO and inner DOALLs. *)

exception Not_applicable of string

type t = {
  tr_target : string;            (** the original array A *)
  tr_new_name : string;          (** the transformed array A' *)
  tr_time : int array;           (** least time coefficients *)
  tr_vectors : int array list;   (** dependence difference vectors *)
  tr_matrix : Imatrix.t;         (** T : old coordinates -> new *)
  tr_inverse : Imatrix.t;
  tr_old_indices : string list;  (** e.g. K, I, J *)
  tr_new_indices : string list;  (** e.g. Kp, Ip, Jp *)
  tr_module : Ps_lang.Ast.pmodule;  (** the transformed surface module *)
}

val apply : Ps_sem.Elab.emodule -> target:string -> t
(** Transform the recurrence on [target] (a local numeric array defined
    by exactly one recursive equation with affine self-references).
    The returned module is named [<module>_hyper] and re-enters the
    normal pipeline (elaborate, schedule, run, emit).
    @raise Not_applicable when a precondition fails.
    @raise Solve.No_schedule when the dependences are cyclic. *)

val derivation_to_string : t -> string
