(** Semantic elaboration — the compiler front end of paper §3.

    Resolves type declarations, flattens array types, binds each
    equation's implicit index variables, expands whole-array equations
    such as [A[1] = InitialA] into fully subscripted form, and
    type-checks every right-hand side. *)

exception Error of string * Ps_lang.Loc.span

type data_kind = Input | Output | Local

type data = {
  d_name : string;
  d_kind : data_kind;
  d_ty : Stypes.ty;
  d_loc : Ps_lang.Loc.span;
}
(** A data item of the module: parameter, result, or local variable. *)

type index = { ix_var : string; ix_range : Stypes.subrange }
(** A bound index variable of an equation, ranging over a subrange. *)

type lhs_sub =
  | Sub_index of index       (** loops over the dimension's subrange *)
  | Sub_fixed of Ps_lang.Ast.expr  (** selects one plane, e.g. [A[1]] *)
(** One subscript position of a fully expanded left-hand side. *)

type def = {
  df_data : string;
  df_subs : lhs_sub list;
  df_path : string list;  (** record field path; [[]] for whole elements *)
}
(** One variable defined by an equation.  [df_subs] is shorter than the
    variable's dimension list only for whole-array module-call
    assignments; [df_path] is non-empty for per-field record equations
    such as [s.x = ...]. *)

type eq = {
  q_id : int;                 (** 0-based position in the define section *)
  q_name : string;            (** "eq.1", "eq.2", ... in source order *)
  q_defs : def list;          (** several only for multi-result calls *)
  q_indices : index list;     (** loopable dimensions, in LHS order *)
  q_rhs : Ps_lang.Ast.expr;   (** with slice expansion applied *)
  q_loc : Ps_lang.Loc.span;
}

type emodule = {
  em_name : string;
  em_params : data list;
  em_results : data list;
  em_locals : data list;
  em_subranges : (string * Stypes.subrange) list;
  em_enums : (string * string list) list;
  em_eqs : eq list;
  em_ast : Ps_lang.Ast.pmodule;  (** the surface module it came from *)
}

type eprogram = { ep_modules : emodule list }

(** {1 Lookups} *)

val find_data : emodule -> string -> data option

val data_exn : emodule -> string -> data

val find_module : eprogram -> string -> emodule option

val find_eq : emodule -> int -> eq option

val eq_exn : emodule -> int -> eq

val enum_ordinal : emodule -> string -> (string * int) option
(** The enumeration a constructor belongs to and its 0-based position
    there: the value the interpreter computes with and the integer the
    C back end emits for the constructor. *)

(** {1 Elaboration} *)

val elab_program : Ps_lang.Ast.program -> eprogram
(** Elaborate a whole program.  Signatures are collected first, so
    modules may call modules defined later in the file.
    @raise Error on any semantic fault. *)

val type_of_expr :
  emodule -> is_index:(string -> bool) -> Ps_lang.Ast.expr -> Stypes.ty
(** Type of an expression inside a module, [is_index] naming the bound
    index variables: the evaluator uses it to give an [if] its static
    type, the C back end to tell a real division of two ints.  No module
    signatures are in scope.
    @raise Error on a call to a module, or an ill-typed expression. *)
