(** Seeded generation of well-typed PS modules for differential fuzzing.

    Programs are kept as structured specs so the shrinker can minimize
    failing cases (sizes, stencil reads, expression trees) and re-render
    after every step.  The grammar spans pure DOALL maps, time
    recurrences with virtual-window reads (§3.4) and current-sweep
    (seidel, hyperplane-eligible, §4) reads, a both-axes 2-D recurrence
    (wavefront), and 1-D strided recurrences whose dependence distance
    is a constant d >= 2 (group-partitioned DOGROUP) or a module
    parameter K (inspector/executor DOINSPECT). *)

(** Deterministic splitmix64 PRNG, independent of [Random]. *)
module Rng : sig
  type t

  val create : int -> t

  val int : t -> int -> int
  (** [int t n] is uniform in [0, n). *)

  val range : t -> int -> int -> int
  (** [range t lo hi] is uniform in [lo, hi], inclusive. *)

  val bool : t -> bool

  val pick : t -> 'a list -> 'a

  val split : int -> int -> t
  (** [split seed i] is an independent stream for case [i] of campaign
      seed [seed]. *)
end

type elem = E_real | E_int

type axis = { ax_lo : int; ax_hi_off : int }  (** range: lo .. N + hi_off *)

type read = {
  rd_plane : int;        (** 0 = current sweep (seidel), p>0 = K-p *)
  rd_offs : int array;   (** relative subscript per space axis *)
}

type ex =
  | Lit_i of int
  | Lit_r of float
  | Atom of string
  | Read of int
  | Bin of string * ex * ex
  | Call1 of string * ex
  | Call2 of string * ex * ex
  | Neg of ex
  | Ite of string * ex * ex * ex * ex

type out_style = Out_slice | Out_identity | Out_xform of ex

type tspec = {
  t_order : int;
  t_seidel : bool;
  t_axes : axis list;
  t_reads : read list;
  t_base_slice : bool;
  t_bases : ex list;
  t_rec : ex;
  t_out : out_style;
  t_rider : bool;
}

type mspec = { m_axes : axis list; m_e : ex }

type lspec = {
  l_reads : bool array;
  l_base_row : ex;
  l_base_col : ex;
  l_rec : ex;
  l_out_array : bool;
}

type stride_kind =
  | St_const of int         (** C[Rest - d], constant d >= 2: DOGROUP(d) *)
  | St_param of int         (** C[Rest - K], runtime value of K: DOINSPECT(K) *)

type sspec = {
  st_kind : stride_kind;
  st_double : bool;         (** also read C[Rest - 2d] (constant strides only) *)
  st_wide : bool;           (** the combine reads Inp[Rest + Rest] (linear class) *)
  st_base : ex;
  st_rec : ex;
  st_out_id : bool;         (** Out[Ipos] = C[Ipos] vs whole-array Out = C *)
}

type shape = Map of mspec | Time of tspec | Lcs of lspec | Stride of sspec

type spec = { sp_elem : elem; sp_n : int; sp_t : int; sp_shape : shape }

val generate : Rng.t -> spec
(** Draw a random spec.  Every generated spec loads, schedules and runs
    without trapping: int values are bounded by construction, divisors
    are provably nonzero, and offset stencil reads are boundary-guarded. *)

val render : spec -> string
(** PS source text of the spec (module name [Fz]). *)

val scalars : spec -> (string * int) list
(** Scalar inputs; {!Psc.default_inputs} derives the array input [Inp]
    from them, as the emitted main() does. *)

val describe : spec -> string
(** One-line label for logs. *)

val shrink : spec -> spec list
(** One-step shrink candidates, most aggressive first.  Candidates are
    complete specs; callers keep one only if it still fails. *)
