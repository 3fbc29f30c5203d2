(** Reference (tree-walk) evaluator for PS expressions — the semantic
    baseline the closure compiler ({!Compile}) must agree with, and the
    cold-path engine for loop bounds, module-call arguments and
    whole-array values. *)

exception Runtime_error of string

type ctx = {
  c_em : Ps_sem.Elab.emodule;
  c_slab : string -> Value.slab;          (** resolve (and allocate) data *)
  c_index : string -> int option;         (** current loop-index bindings *)
  c_call : string -> Value.value list -> Value.value list;  (** module invocation *)
}

val eval : ctx -> Ps_lang.Ast.expr -> Value.value

val eval_scalar : ctx -> Ps_lang.Ast.expr -> Value.scalar

val eval_int : ctx -> Ps_lang.Ast.expr -> int

val slice_slab : Value.slab -> int array -> Value.slab
(** Copy a slice (first [k] dimensions fixed) into a fresh slab; used for
    partial references passed as module arguments. *)
