(** Hand-written lexer for the PS surface syntax.

    The lexer supports one token of lookahead ({!peek}) plus full state
    snapshots ({!save}/{!restore}) used by the parser for the few places
    where PS needs backtracking (enumeration types vs. parenthesized
    subrange bounds). *)

exception Error of string * Loc.span
(** Raised on malformed input (bad character, unterminated comment, ...). *)

type t
(** Mutable lexer state over an in-memory source string. *)

val create : string -> t

val next : t -> Token.t * Loc.span
(** Consume and return the next token.  Returns {!Token.EOF} forever once
    the input is exhausted. *)

val peek : t -> Token.t * Loc.span
(** Return the next token without consuming it. *)

type snapshot

val save : t -> snapshot
(** Capture the current lexer state. *)

val restore : t -> snapshot -> unit
(** Rewind to a previously captured state. *)

val all_tokens : string -> (Token.t * Loc.span) list
(** Tokenize a whole string (testing helper); excludes the final EOF. *)
