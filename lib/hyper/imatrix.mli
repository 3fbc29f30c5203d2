(** Small exact integer matrices for the hyperplane coordinate change.
    Sizes are recurrence nesting depths (2-4), so cofactor expansion is
    adequate and everything stays exact. *)

type t = int array array  (** row-major, square *)

val dim : t -> int

val make : int -> (int -> int -> int) -> t

val identity : int -> t

val of_rows : int list list -> t
(** @raise Invalid_argument if the rows are not square. *)

val row : t -> int -> int array
(** A copy of row [i]. *)

val det : t -> int

val inverse : t -> t
(** Exact inverse of a unimodular matrix.
    @raise Invalid_argument when [|det| <> 1]. *)

val mul : t -> t -> t

val apply : t -> int array -> int array
(** Matrix-vector product. *)

val equal : t -> t -> bool

val pp : t Fmt.t

val to_string : t -> string
