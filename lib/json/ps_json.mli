(** JSON for everything psc reads and writes: one value type and parser,
    one string escaper, and writers over already-rendered JSON text
    (no intermediate tree).  Strings are escaped one way: the double
    quote, backslash, newline, tab and carriage return as two-character
    escapes, other control characters as [\u00XX], every other byte
    (non-ASCII UTF-8 included) verbatim. *)

type t =
  | Obj of (string * t) list
  | Arr of t list
  | Str of string
  | Num of float
  | Bool of bool
  | Null

val str : string -> string
(** The quoted, escaped JSON string. *)

val int : int -> string
val bool : bool -> string

val arr : string list -> string
(** A JSON array of already-rendered items. *)

val obj : (string * string) list -> string
(** A JSON object: keys are escaped, values are already-rendered text. *)

val opt : string -> ('a -> string) -> 'a option -> (string * string) list
(** [opt k render v]: the field [k] rendered from [Some v], or no field. *)

exception Parse_error of string

val parse : string -> t
(** Parse one JSON value (surrounding whitespace allowed).  [\uXXXX]
    escapes decode to UTF-8, surrogate pairs included.
    @raise Parse_error on any malformed input — a number token that is
    not a float, a lone surrogate, trailing garbage — and on nothing
    else. *)

val member : string -> t -> t option
(** The first member named [k] of an object; [None] for a missing
    member or a non-object.  The typed lookups below are also [None]
    for a member of another type. *)

val member_str : string -> t -> string option
val member_num : string -> t -> float option
val member_bool : string -> t -> bool option
