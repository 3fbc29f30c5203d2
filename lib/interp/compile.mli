(** Closure compiler for equation right-hand sides.

    Expressions are compiled bottom-up into closures over a {!frame} — a
    flat int array of enclosing loop-variable values, at least one slot
    long — with the scalar type resolved at compile time.  Affine
    subscripts compile to one offset closure per array reference, reads
    are typed nodes their parents read inline, and sum chains, guard
    chains and stores fuse into single closures; an equation in an
    innermost loop, real or int, also gets a row form ({!row}).  Run
    sequentially at the benchmark's sizes, fig6, h3 and lcs allocate
    0.05, 0.07 and 0.03 minor words per evaluation, set-up included
    (test_exec's "allocation" cases pin bounds of 1, 0.25 and 0.1).
    Anything exotic (records, module calls, slices) falls back to the
    tree-walk evaluator; the test suite checks agreement with {!Eval} on
    random expressions. *)

type frame = int array

type comp =
  | CInt of (frame -> int)
  | CReal of (frame -> float)
  | CBool of (frame -> bool)
  | CBoxed of (frame -> Value.scalar)
  | CFRead of float array * (frame -> int)
      (** a real array read: payload and flat-offset closure *)
  | CIRead of int array * (frame -> int)
      (** an int array read: payload and flat-offset closure *)

type cctx = {
  k_em : Ps_sem.Elab.emodule;
  k_slab : string -> Value.slab;
      (** resolve/allocate a data slab; int input scalars must already
          be seeded, since affine lowering folds their values *)
  k_slot : string -> int option;       (** loop variable -> frame slot *)
  k_call : string -> Value.value list -> Value.value list;
}

exception Cannot_compile of string

val compile : cctx -> Ps_lang.Ast.expr -> comp

val compile_int : cctx -> Ps_lang.Ast.expr -> frame -> int

val compile_real : cctx -> Ps_lang.Ast.expr -> frame -> float

val compile_bool : cctx -> Ps_lang.Ast.expr -> frame -> bool

val compile_scalar : cctx -> Ps_lang.Ast.expr -> frame -> Value.scalar

val compile_offset : cctx -> Value.slab -> Ps_lang.Ast.expr list -> frame -> int
(** The flat offset of a full subscript vector into the slab, with the
    checks and window mapping of a read; shared with
    the equation writers in {!Exec}. *)

type row = {
  rw_run : frame -> int -> int -> unit;
      (** [rw_run fr lo hi] evaluates the equation at row slot = [lo],
          ..., [hi], in that order, with the checks, traps and bits of
          one evaluation per point *)
  rw_scratch : int;
      (** frame slots above the row slot that [rw_run] writes *)
}

val compile_store :
  ?row:int ->
  cctx ->
  Value.slab ->
  Ps_lang.Ast.expr list ->
  Ps_lang.Ast.expr ->
  (frame -> unit) * row option
(** [compile_store ctx dst subs rhs] evaluates [rhs] and stores it at
    [dst[subs]], a real or int slab, fused with [rhs]'s [if] nodes (and,
    into a real slab, its sum-chain nodes) so a real value read from an
    array, a chain or an int is never boxed.  The value is computed
    before the offset.  With [~row:slot], the same walk also builds the
    equation's row over the loop variable in frame slot [slot], when it
    has one: the row cuts [lo .. hi] where an affine guard may change
    value and decides those guards once per segment.  Each leaf below
    them runs strided over a segment that passes its checks, every
    reference it may read, then the destination, at the segment's two
    ends: a real [+] chain of reads with its reads inline, any other
    leaf as [compile]'s closure with each reference lowered to its row
    offset.  A segment that fails its check, a leaf with a dynamic
    subscript, a windowed dimension the row variable indexes, a module
    call or the tree-walk fallback runs the checked closure point by
    point, so it traps where a point would, with the same message. *)
