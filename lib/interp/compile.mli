(** Closure compiler for equation right-hand sides.

    Expressions are compiled bottom-up into closures over a {!frame} — a
    flat int array of enclosing loop-variable values, at least one slot
    long — with the scalar type resolved at compile time.  Affine
    subscripts compile to one offset closure per array reference, with
    one plane table per windowed slab for an equation; reads are typed
    nodes their parents read inline, real arithmetic, [min]/[max], sum
    chains and [if]s are nodes a store computes in place, and guard
    chains and stores fuse into single closures.  An equation in an
    innermost loop, real or int, also gets a row form ({!row}), whose
    leaves read every operand in place: a one-read copy or a 4-point
    stencil from locals, any other leaf's reads in their row form.  Run
    sequentially at the benchmark's sizes, fig6, h3 and lcs allocate
    0.050, 0.065 and 0.033 minor words per evaluation, set-up included,
    and a real [if] leaf over products 0.045 (test_exec's "allocation"
    cases pin 0.1 for each).  Anything exotic (records, module calls,
    slices) falls back to the tree-walk evaluator; the test suite checks
    agreement with {!Eval} on random expressions. *)

type frame = int array

type at
(** Where a read finds its flat offset: a checked offset closure or, in
    a row leaf, its row form, read in place *)

type fnode
(** A real arithmetic operation, [min]/[max], sum chain or [if] over
    inline operands, which a store or a parent evaluates in place *)

type comp =
  | CInt of (frame -> int)
  | CReal of (frame -> float)
  | CBool of (frame -> bool)
  | CBoxed of (frame -> Value.scalar)
  | CFRead of float array * at  (** a real array read: payload and offset *)
  | CIRead of int array * at  (** an int array read: payload and offset *)
  | CFNode of fnode  (** a real node computed in place *)

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
    array, computed by a node or converted from an int is never boxed.
    The value is computed before the offset.  With [~row:slot], the
    same walk also builds the equation's row over the loop variable in
    frame slot [slot], when it has one: the row cuts [lo .. hi] where an
    affine guard may change value and decides those guards once per
    segment.  Each leaf below them runs strided over a segment that
    passes its checks, every reference it may read, then the
    destination, at the segment's two ends: a real [+] chain of reads
    with its reads inline, any other leaf as [compile]'s nodes with each
    reference in its row form, read in place.  A segment that fails its
    check, a leaf with a dynamic subscript, a windowed dimension the row
    variable indexes, a module call or the tree-walk fallback runs the
    checked closure point by point, so it traps where a point would,
    with the same message. *)
