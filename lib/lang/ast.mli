(** Abstract syntax of PS programs (paper §2).

    A PS program is one or more modules.  A module takes typed input
    parameters, returns one or more results, and defines every non-input
    variable with order-free single-assignment equations. *)

type ident = string

type unop = Neg | Not

type binop =
  | Add | Sub | Mul | Div        (** [+ - * /]; [/] always yields real *)
  | Idiv | Imod                  (** [div] and [mod] on integers *)
  | Eq | Ne | Lt | Le | Gt | Ge  (** comparisons *)
  | And | Or                     (** boolean connectives *)

type expr = { e : expr_node; e_loc : Loc.span }

and expr_node =
  | Int of int
  | Real of float
  | Bool of bool
  | Var of ident
  | Index of expr * expr list
      (** [a[e1, ..., en]]; fewer subscripts than dimensions is a slice *)
  | Field of expr * ident        (** [r.f] *)
  | Call of ident * expr list    (** module or builtin application *)
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | If of expr * expr * expr     (** if-expression; both branches required *)

type type_expr = { t : type_node; t_loc : Loc.span }

and type_node =
  | Tint
  | Treal
  | Tbool
  | Tname of ident                          (** reference to a declared type *)
  | Tsubrange of expr * expr                (** [lo .. hi] *)
  | Tarray of type_expr list * type_expr    (** [array [d1, ..., dn] of t] *)
  | Trecord of (ident * type_expr) list
  | Tenum of ident list                     (** [(c1, ..., cn)] *)

type param = { p_name : ident; p_type : type_expr; p_loc : Loc.span }

type type_decl = { td_names : ident list; td_def : type_expr; td_loc : Loc.span }

type var_decl = { vd_names : ident list; vd_type : type_expr; vd_loc : Loc.span }

type lhs = {
  l_name : ident;
  l_subs : expr list;
  l_path : ident list;  (** record field path: [s.x] has path [["x"]] *)
  l_loc : Loc.span;
}
(** Left-hand side of an equation: a variable, possibly restricted to a
    slice by explicit subscripts — an index variable ranges over its
    subrange, a constant selects one plane ([A[1] = InitialA]) — and
    possibly narrowed to one record field ([s.x = ...]). *)

type equation = {
  eq_lhs : lhs list;  (** several only for multi-result module calls *)
  eq_rhs : expr;
  eq_loc : Loc.span;
}

type pmodule = {
  m_name : ident;
  m_params : param list;
  m_results : param list;
  m_types : type_decl list;
  m_vars : var_decl list;
  m_eqs : equation list;
  m_loc : Loc.span;
}

type program = pmodule list

(** {1 Constructors} *)

val mk : ?loc:Loc.span -> expr_node -> expr
(** Wrap a node, defaulting to {!Loc.dummy} (synthesized code). *)

val mk_t : ?loc:Loc.span -> type_node -> type_expr

val int_e : int -> expr

val var_e : ident -> expr

val add_offset : expr -> int -> expr
(** [add_offset e n] is [e + n] with constant folding of [v + c] shapes,
    keeping synthesized subscripts in the "I - constant" class. *)

(** {1 Structural operations} *)

val equal_expr : expr -> expr -> bool
(** Structural equality, ignoring locations. *)

val free_vars : expr -> ident list
(** Variables occurring in an expression, sorted, without duplicates
    (PS expressions have no binders). *)

val subst_vars : (ident * expr) list -> expr -> expr
(** Simultaneous substitution of variables by expressions. *)
