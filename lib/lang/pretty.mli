(** Pretty-printer for PS.

    Produces valid concrete syntax: [parse (print x)] equals [x] up to
    locations, a property the test suite checks on random expressions and
    on every shipped model. *)

val pp_expr : ?prec:int -> Ast.expr Fmt.t
(** Print an expression, parenthesizing as needed under a context of the
    given precedence (0 = top level). *)

val pp_type : Ast.type_expr Fmt.t

val pp_lhs : Ast.lhs Fmt.t

val pp_equation : Ast.equation Fmt.t

val pp_module : Ast.pmodule Fmt.t

val pp_program : Ast.program Fmt.t

val expr_to_string : Ast.expr -> string

val module_to_string : Ast.pmodule -> string

val program_to_string : Ast.program -> string
