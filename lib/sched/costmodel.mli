(** Static scheduling cost model: derive a {!Policy.table} from a
    flowchart's symbolic bounds and concrete scalar inputs.

    Per fork candidate, the model estimates the work of one invocation
    (equation evaluations per fork, with enclosing DO variables taken at
    the midpoints of their ranges) and decides: sequential when the work
    is below the parallel overhead or the host has one core; collapse
    only for perfect DOALL bands with rectangular inner bounds (a skewed
    trimmed wavefront stays nested — the recorded h3 regression, fixed
    by construction); stealing with a chunk floor on big uniform spaces
    and a raised wake threshold on modest ones. *)

val static :
  env:(string * int) list -> cores:int -> Flowchart.t -> Policy.table
(** The static table for a flowchart under the given scalar inputs and
    host core count.  Total: a nest whose bounds cannot be evaluated is
    assumed wide (forked, collapsed only if provably rectangular). *)
