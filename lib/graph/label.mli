(** Edge label attributes (paper Fig. 2).

    Each edge touching an array data node carries, per dimension, the
    class of the subscript expression used at that dimension. *)

type sub_exp =
  | Affine of { var : string; offset : int; target_pos : int }
      (** [var + offset], where [var] is the equation index at
          [target_pos] — the paper's "I" (offset 0) and "I - constant"
          (offset < 0) classes, plus "I + constant" (offset > 0), which
          step 3 of the scheduler rejects *)
  | Linear of {
      var : string;
      coeff : int;
      target_pos : int;
      params : (string * int) list;
      const : int;
    }
      (** the symbolic affine class [coeff*var + Σ ci*Pi + const] over one
          loop index and the module's scalar parameters, with
          [(coeff, params) ≠ (1, [])]; Fig. 2 calls it "other", but the
          dependence-distance analyzer can still solve over it *)
  | Const_low   (** provably equals the dimension's lower bound *)
  | Const_mid of int
      (** provably equals the lower bound plus a positive constant
          (boundary planes above the first, e.g. [F[1]] of Fibonacci);
          the write-side window rules need the exact distance *)
  | Const_high  (** provably equals the upper bound, e.g. [A[maxK]];
                    drives virtual-dimension rule 2 (§3.4) *)
  | Slice       (** dimension left unsubscripted (whole-slice reference) *)
  | Opaque      (** "any other expression" *)

val classify :
  Ps_sem.Elab.eq -> Ps_sem.Stypes.subrange -> Ps_lang.Ast.expr -> sub_exp
(** Classify one subscript appearing at a dimension with the given
    subrange, inside the given equation. *)

val linear_parts :
  sub_exp -> (string * int * int * Ps_sem.Linexpr.t) option
(** [(var, coeff, target_pos, rest)] for the aligned classes [Affine]
    (coeff 1, constant rest) and [Linear]; [rest] collects the
    parameter terms and the constant. *)

val pp : sub_exp Fmt.t

val to_string : sub_exp -> string

val class_name : sub_exp -> string
(** The paper's Fig. 2 vocabulary ("I", "I - constant", "other", ...). *)
