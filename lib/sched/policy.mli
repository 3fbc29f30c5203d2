(** Per-loop-nest scheduling policy.

    Legality (DO vs DOALL vs DOGROUP/DOINSPECT) is the scheduler's and
    the verifier's business; a policy only picks the *shape* of the
    schedule at each fork candidate: sequential vs forked, flattened
    band vs nested, stealing vs fixed chunks, and per-job chunk-floor /
    wake overrides.  Every fork point of a run executes exactly one decision
    ({!resolve}): its table entry, or the no-table default.  A policy never
    changes results, which is what makes a tuned table safe to cache
    and replay as a compile artifact. *)

type source = Static | Tuned

type decision = {
  d_par : bool;       (** false: run the whole nest sequentially *)
  d_collapse : bool;  (** flatten the {!Collapse.band} under this head *)
  d_steal : bool;     (** work-stealing deal vs fixed contiguous chunks *)
  d_chunk_min : int option;  (** per-job floor on a claimed chunk *)
  d_wake : int option;       (** per-job wake-threshold override *)
  d_why : string;            (** one-line rationale for the trajectory *)
}

val sequential : why:string -> decision

val parallel :
  ?steal:bool ->
  ?collapse:bool ->
  ?chunk_min:int ->
  ?wake:int ->
  why:string ->
  unit ->
  decision

type table = {
  t_source : source;
  t_host_cores : int;
  t_entries : (string * decision) list;
}

type candidate = {
  c_loop : Flowchart.loop;  (** physically the flowchart's own record *)
  c_key : string;
  c_binders : Flowchart.binder list;
      (** the enclosing DO loops and SOLVE bodies, outermost first *)
}

val index : Flowchart.t -> candidate list
(** The fork candidates of a flowchart, in flowchart order: the
    parallel-kind loops (DOALL, DOGROUP, DOINSPECT) reachable through DO
    loops and SOLVE bodies only.  Each carries its stable key: the
    dot-joined binder path from the root plus a ["#n"] ordinal for
    repeats.  Deterministic, so tune-time and run-time keys agree.  This
    is the one definition of a fork point: the interpreter forks, the
    cost model prices, the C back end marks [omp parallel for] and W120
    checks exactly these loops. *)

val site_name : Flowchart.loop -> string -> string
(** [site_name l label]: the loop-profiler site of [l], e.g.
    ["DOALL K.I"] — its kind and [label], the policy key of a fork
    candidate, the loop variable of any other loop. *)

val find : table -> string -> decision option

val resolve : table option -> Flowchart.t -> (candidate * decision) list
(** Every fork candidate with the decision it runs: its table entry,
    else the no-table default — fork, work-stealing, the pool's default
    chunks and wake threshold, flatten only where [--collapse] marked
    the band.  The loops are physically those of the flowchart, so
    callers may look decisions up by identity ([==]). *)

val uniform :
  source:source -> cores:int -> Flowchart.t -> (Flowchart.loop -> decision) ->
  table
(** One decision rule applied to every fork candidate of a flowchart. *)

val stale : table -> host_cores:int -> bool
(** Chunk and wake choices do not transfer across hosts: a table tuned
    for a different core count is stale (diagnostic W121). *)

val table_summary : table -> string
(** E.g. ["static[K.I=steal+collapse;I.J=seq]"]: a run response's
    [policy] field and [psc tune]'s summary line. *)

val to_json : table -> string
(** One-line JSON object (schema field ["policy":1]) — the wire and
    cache format, also what [psc tune] prints. *)

val of_json : string -> (table, string) result

val validate : table -> Flowchart.t -> string list
(** Structural problems: entries naming no nest, collapse requested on
    a nest that heads no perfect DOALL band ({!Collapse.collapsible}),
    a chunk floor below 1.  Empty means well-formed. *)
