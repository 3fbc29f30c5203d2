(** Work/span accounting for a flowchart.

    For concrete input values, [work] is the number of equation
    evaluations and [span] the critical-path length under an idealized
    PRAM where a DOALL's iterations are simultaneous; work/span is the
    available loop-level parallelism — the machine-independent quantity
    the DO/DOALL distinction controls.  Runtime statistics
    ({!Ps_interp.Exec}) validate [work] exactly for untrimmed schedules. *)

exception Unsupported of string
(** A loop bound could not be evaluated (unbound variable, or a shape
    other than linear / min / max). *)

val eval_bound : (string -> int option) -> Ps_lang.Ast.expr -> int
(** Evaluate a loop bound (a linear form, or min/max of such) under an
    environment of input values and enclosing loop variables.
    @raise Unsupported otherwise. *)

type cost = { work : float; span : float }

val parallelism : cost -> float
(** work/span; 1.0 for empty schedules. *)

val of_flowchart : env:(string * int) list -> Flowchart.t -> cost
(** Cost under the given values for the module's scalar inputs.  Loops
    whose nested bounds depend on their own variable (after trimming)
    are iterated exactly. *)
