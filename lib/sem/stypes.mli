(** Elaborated (resolved) types.

    Nested array types are flattened to one dimension list, matching the
    paper's view that dimensionality "is the sum of subscripts and
    superscripts" (§2). *)

type subrange = {
  sr_name : string;   (** declared name, or generated for inline ranges *)
  sr_lo : Ps_lang.Ast.expr;  (** bound expression over the module inputs *)
  sr_hi : Ps_lang.Ast.expr;
}

type scalar =
  | Sint
  | Sreal
  | Sbool
  | Senum of string   (** name of the enumeration type *)

type ty =
  | Scalar of scalar
  | Array of subrange list * ty  (** the element is never itself an Array *)
  | Record of (string * ty) list

val equal_ty : ty -> ty -> bool

val equal_subrange : subrange -> subrange -> bool
(** Bounds equality; names are only for display and alignment. *)

val is_numeric : ty -> bool

val dims : ty -> subrange list
(** Dimension list of an array type; [[]] for scalars and records. *)

val elem_ty : ty -> ty
(** Element type of an array; the type itself otherwise. *)

val to_string : ty -> string
