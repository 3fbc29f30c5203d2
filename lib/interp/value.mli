(** Runtime values and the array store.

    Arrays are flat, contiguous and unboxed, one stride per dimension.  A
    {e virtual} dimension (paper §3.4) allocates a window of [w] planes
    instead of its full extent, mapping its index through [mod w].  Word
    counts are exact, so the space-reuse experiments can report the
    paper's §3.4 / §4 numbers directly. *)

type elem_kind = KInt | KReal | KBool | KEnum of string

type payload =
  | PFloat of float array
  | PInt of int array
  | PBool of Bytes.t
  | PBox of box array  (** records and other boxed elements *)

and box = Bnone | Brecord of (string * scalar) list

and scalar =
  | Sc_int of int
  | Sc_real of float
  | Sc_bool of bool
  | Sc_enum of string * int  (** enum type name, ordinal *)
  | Sc_record of (string * scalar) list

type dim_info = {
  di_lo : int;       (** declared lower bound *)
  di_extent : int;   (** declared number of elements *)
  di_window : int;   (** allocated planes; equals [di_extent] unless virtual *)
}

type slab = {
  s_name : string;
  s_kind : elem_kind;
  s_dims : dim_info array;
  s_strides : int array;  (** in elements, over the window sizes *)
  s_data : payload;
}

type value = Vscalar of scalar | Varray of slab

exception Bounds of string
(** A subscript outside the declared extents (independent of windows). *)

(** {1 Slabs} *)

val make_slab :
  name:string -> elem:Ps_sem.Stypes.ty -> dims:(int * int * int) list -> slab
(** [make_slab ~name ~elem ~dims] with [dims] a list of
    [(lo, extent, window)] triples, zero-initialized. *)

val allocated_words : slab -> int

val ndims : slab -> int

val iter_box : slab -> (int array -> unit) -> unit
(** [iter_box s f] calls [f] on every point of [s]'s declared box in
    row-major order (last subscript fastest), the order in which the
    emitted C harness fills inputs and sums results.  The index vector
    is reused between calls.  A rank-0 slab has one point, [[||]]; a box
    with an empty dimension has none. *)

val offset : slab -> int array -> int
(** Flat offset of a subscript vector, mapping virtual dimensions through
    their window.  Window dimensions always yield an in-window plane,
    even for (out-of-declared-bounds) negative relative indices. *)

val check_bounds : slab -> int array -> unit
(** @raise Bounds when a subscript leaves its declared range. *)

val get_scalar : slab -> int array -> scalar

val set_scalar : slab -> int array -> scalar -> unit

(** {1 Typed raw access (no bounds checks)} *)

val set_float : slab -> int -> float -> unit

val set_int : slab -> int -> int -> unit

val set_bool : slab -> int -> bool -> unit

(** {1 Scalars} *)

val kind_of_ty : Ps_sem.Stypes.ty -> elem_kind

val kind_name : elem_kind -> string
(** ["int"], ["real"], ["bool"] or ["enum"]. *)

val as_int : scalar -> int

val as_float : scalar -> float

val as_bool : scalar -> bool

val equal_scalar : scalar -> scalar -> bool
(** Numeric kinds compare by value ([Sc_int 3] equals [Sc_real 3.0]). *)

val pp_scalar : scalar Fmt.t
