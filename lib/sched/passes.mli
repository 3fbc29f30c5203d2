(** Scheduling with the optional passes in their one composition order:
    sink, fuse, trim, collapse marking. *)

type scheduled = {
  sc_module : Ps_sem.Elab.emodule;
  sc_result : Schedule.result;       (** the schedule before any pass *)
  sc_flowchart : Flowchart.t;
  sc_windows : Schedule.window list;  (** re-derived by sinking *)
  sc_sunk : Sink.sunk list;
  sc_merged : int;     (** loops merged by fusion *)
  sc_trimmed : int;    (** bounds tightened by trimming *)
  sc_collapsed : int;  (** band heads marked for collapsing *)
}

val schedule :
  sink:bool ->
  fuse:bool ->
  trim:bool ->
  collapse:bool ->
  Ps_sem.Elab.emodule ->
  scheduled
(** Schedule the module and run the selected passes over the result. *)
