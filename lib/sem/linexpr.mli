(** Symbolic linear forms [c0 + sum ci*xi] over module parameters.

    Subrange bounds in PS are expressions over scalar inputs; the
    compiler reasons about them without knowing the values: bound
    comparison is decidable exactly when a difference is a known
    constant, and entailment under subrange non-emptiness facts is
    approximated by a bounded Farkas certificate. *)

type t = {
  const : int;
  terms : (string * int) list;  (** sorted by variable, no zero coefficients *)
}

val zero : t

val of_int : int -> t

val of_var : string -> t

val add : t -> t -> t

val sub : t -> t -> t

val neg : t -> t

val scale : int -> t -> t

val add_const : int -> t -> t

val equal : t -> t -> bool

val const_value : t -> int option

val diff_const : t -> t -> int option
(** [diff_const a b] is [Some k] when [a - b] is the known constant [k];
    [None] when the difference involves parameters. *)

val of_expr : Ps_lang.Ast.expr -> t option
(** Convert a PS expression, if it is linear (constants, variables, [+],
    [-], unary [-], and multiplication by a constant). *)

val to_expr : t -> Ps_lang.Ast.expr
(** Rebuild a compact PS expression. *)

val eval : (string -> int option) -> t -> int
(** Evaluate under an assignment; raises [Invalid_argument] on an unbound
    variable. *)

val prove_nonneg : assumptions:t list -> t -> bool
(** [prove_nonneg ~assumptions g] attempts to show [g >= 0] given
    [h >= 0] for each assumption [h], by searching for small non-negative
    multipliers making [g - sum li*hi] a non-negative constant.  Sound
    but incomplete. *)

val pp : t Fmt.t

val to_string : t -> string
