(** Pretty-printer for PS.

    Produces valid concrete syntax: [parse (print x)] equals [x] up to
    locations, a property the test suite checks on random expressions and
    on every shipped model. *)

val expr_to_string : Ast.expr -> string

val module_to_string : Ast.pmodule -> string

val program_to_string : Ast.program -> string
