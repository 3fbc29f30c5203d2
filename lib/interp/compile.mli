(** Closure compiler for equation right-hand sides.

    Expressions are compiled bottom-up into closures over a {!frame} — a
    flat int array of enclosing loop-variable values, at least one slot
    long — with the scalar type resolved at compile time.  Affine
    subscripts compile to one offset closure per array reference, reads
    are typed nodes their parents read inline, and sum chains, guard
    chains and real stores fuse into single closures.  Run sequentially
    at the benchmark's sizes, fig6, h3 and lcs allocate 0.03, 0.05 and
    0.02 minor words per evaluation, set-up included (test_exec's
    "allocation" cases pin bounds of 1, 0.25 and 0.1).
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

val compile_store_real :
  cctx -> Ps_lang.Ast.expr -> float array -> (frame -> int) -> frame -> unit
(** [compile_store_real ctx rhs dst off] evaluates [rhs] and stores it
    at [dst.(off fr)], fused with [rhs]'s [if] and sum-chain nodes so
    the value is never boxed.  The value is computed before the
    offset. *)
