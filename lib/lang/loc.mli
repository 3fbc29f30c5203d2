(** Source locations used by the lexer, parser and all diagnostics. *)

type pos = { line : int; col : int; offset : int }
(** A point in the source text.  [line] and [col] are 1-based; [offset] is
    the 0-based byte offset. *)

type span = { start_p : pos; end_p : pos }
(** A half-open region of source text. *)

val start_pos : pos
(** Position of the first character of a file. *)

val dummy : span
(** Placeholder span for synthesized nodes. *)

val span : pos -> pos -> span
(** [span a b] is the region from [a] (inclusive) to [b] (exclusive). *)

val merge : span -> span -> span
(** Smallest span covering both arguments. *)

val advance : pos -> char -> pos
(** Advance a position over one character, tracking newlines. *)

val pp : span Fmt.t

val to_string : span -> string
