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

(** {2 Primitives}

    For front ends that read their own document structure around PS
    expressions (the equation notation, [Ps_eqn]).  Lexical errors
    surface as {!Lexer.Error}, syntax errors as {!Error}. *)

val create : string -> t
(** A parser at the start of the given source. *)

val peek : t -> Token.t * Loc.span
(** The next token, not consumed. *)

val next : t -> Token.t * Loc.span
(** Consume and return the next token. *)

val expect : t -> Token.t -> Loc.span
(** Consume the given token and return its span, or raise {!Error}. *)

val expect_ident : t -> string * Loc.span
(** Consume an identifier (not a keyword) and return it with its span. *)

val accept : t -> Token.t -> bool
(** Consume the given token if it is next; say whether it was. *)

val parse_expr : t -> Ast.expr
(** One expression, with source spans. *)

val parse_expr_list : t -> Ast.expr list
(** One or more comma-separated expressions. *)
