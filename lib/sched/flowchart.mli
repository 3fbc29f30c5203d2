(** Flowchart descriptors (paper §3.2, Fig. 4).

    A flowchart is a list of descriptors: dependency-graph nodes (data
    items and equations) for which straight-line code is emitted, and
    subrange descriptors meaning a for loop — iterative (DO) or parallel
    (DOALL) — over a list of nested descriptors. *)

type loop_kind =
  | Iterative  (** DO: carried dependence, must run in index order *)
  | Parallel   (** DOALL: iterations are independent *)
  | Grouped of int
      (** DOGROUP(g): every carried dependence distance is a multiple of
          [g >= 2]; the [g] residue classes mod [g] are mutually
          independent — a DOALL over the classes, index order within
          each *)
  | Inspected of Ps_lang.Ast.expr
      (** DOINSPECT(d): the carried distance is the runtime parameter
          expression [d]; an inspector evaluates it on loop entry —
          [d >= 1] runs the loop as DOGROUP(d), [d < 1] is a runtime
          legality failure *)

type descriptor =
  | D_data of string  (** placement marker for a data item *)
  | D_eq of eq_ref
  | D_loop of loop
  | D_solve of solve

and eq_ref = {
  er_id : int;
  er_aliases : (string * string) list;
      (** renamings [equation index var -> enclosing loop var] *)
}

and loop = {
  lp_var : string;                       (** canonical loop variable *)
  lp_range : Ps_sem.Stypes.subrange;     (** loop bounds *)
  lp_kind : loop_kind;
  lp_collapse : bool;
      (** head of a perfectly nested DOALL band that may be flattened
          into one combined iteration space; set by {!Collapse}, always
          [false] straight out of the scheduler *)
  lp_body : descriptor list;
}

and solve = {
  sv_var : string;
  sv_range : Ps_sem.Stypes.subrange;
  sv_rhs : Ps_lang.Ast.expr;  (** value in terms of enclosing loop vars *)
  sv_body : descriptor list;
}
(** A solved subscript: the index is computed from the enclosing loop
    variables and the body runs only if it lands in range.  Produced by
    {!Sink} — the paper's "unrotate back into the return parameter". *)

type t = descriptor list

val kind_name : loop_kind -> string
(** "DO", "DOALL", "DOGROUP(g)", or "DOINSPECT(d)". *)

val to_compact_string : Ps_sem.Elab.emodule -> t -> string

val to_tree_string : Ps_sem.Elab.emodule -> t -> string

val count_loops : ?kind:loop_kind -> t -> int

val equations : t -> int list
(** Equation ids, in emission order. *)

val aligned_dim :
  Ps_sem.Elab.emodule -> int list -> data:string -> var:string -> int option
(** The dimension of [data] that the index [var] scans: its position in
    the first definition of [data], among the equations [eq_ids], that
    subscripts a dimension by [var]. *)

val map_loops : (loop -> loop) -> t -> t
(** Bottom-up rewriting of every loop descriptor. *)

type binder = B_loop of loop | B_solve of solve
(** An enclosing control descriptor: a real loop, or a solved subscript
    that binds its variable to a computed value. *)

val binder_var : binder -> string

val iter_eqs : (binders:binder list -> seq:int -> eq_ref -> unit) -> t -> unit
(** Visit every equation reference in emission (execution) order.
    [binders] lists the enclosing binders outermost first; [seq] numbers
    the references in visit order, so comparing two [seq] values decides
    which equation's straight-line code is emitted first. *)
