(** Recursive-descent parser for the PS surface syntax (paper §2). *)

exception Error of string * Loc.span
(** Raised on a syntax error, with a message and the offending location. *)

type t

val program_of_string : string -> Ast.program
(** Parse a complete program (one or more modules). *)

val module_of_string : string -> Ast.pmodule
(** Parse a program and return its first module. *)

val expr_of_string : string -> Ast.expr
(** Parse a standalone expression; rejects trailing input. *)
