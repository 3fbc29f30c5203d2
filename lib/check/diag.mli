(** Unified diagnostics for the PS compiler.

    Every check in the pipeline — single-assignment analysis, the lint
    passes, and the schedule legality verifier — reports through this one
    type, so drivers render, filter, and exit uniformly.  Each diagnostic
    carries a stable machine-readable code ([E0xx] for errors, [W1xx] for
    warnings), a source span, and a human message.  Renderers produce
    plain text (one line per diagnostic) and JSON (an array of objects),
    and [exit_code] implements the [--werror] contract. *)

type severity = Error | Warning

type code =
  (* Single-assignment checks (E00x / W10x). *)
  | Undefined_data           (** E001: a non-input item has no definition *)
  | Conflicting_definition   (** E002: two equations define the same element *)
  | Missing_field            (** E003: a record field is never defined *)
  | Possible_overlap         (** W101: definitions may overlap (undecided) *)
  | Coverage_unverified      (** W102: slice definitions may leave gaps *)
  (* Schedule legality verification (E01x). *)
  | Doall_carried            (** E010: a DOALL loop carries a dependence *)
  | Negative_dependence      (** E011: an iterative loop reads a future iteration *)
  | Unverifiable_dependence  (** E012: a dependence cannot be proved satisfied *)
  | Order_violation          (** E013: a value is read before its equation runs *)
  | Missing_equation         (** E014: an equation is absent from the flowchart *)
  | Duplicate_equation       (** E015: an equation appears twice *)
  | Unbound_index            (** E016: an index variable has no enclosing loop *)
  | Window_underflow         (** E017: a storage window is smaller than
                                 max dependence offset + 1 (paper sec. 3.4) *)
  | Hyperplane_violation     (** E018: the time vector fails a Lamport
                                 inequality (paper sec. 4) *)
  | Non_unimodular           (** E019: the coordinate change is not unimodular *)
  | Window_clobber           (** E022: a write from outside the producing loop
                                 lands inside a storage window, so it would be
                                 overwritten (or overwrite live planes) before
                                 its readers run *)
  | Bad_group_partition      (** E023: a group-partitioned DOALL's modulus does
                                 not divide some carried dependence distance,
                                 so two dependent iterations can land in
                                 different (concurrent) groups *)
  | Inspector_missing        (** E024: a schedule relies on a symbolic
                                 (parameter-dependent) dependence distance but
                                 carries no inspector node testing it at run
                                 time, or the inspector tests the wrong form *)
  (* Lints (E02x / W11x). *)
  | Out_of_bounds            (** E020: a subscript provably escapes its bounds *)
  | Bad_collapse             (** E021: a collapse mark sits on something other
                                 than a perfect DOALL pair *)
  | Unused_data              (** W110: a data item is never read *)
  | Dead_equation            (** W111: an equation only feeds unused items *)
  | No_virtualization        (** W112: a recursively indexed dimension cannot
                                 be windowed (with the reason) *)
  | Unschedulable            (** W113: the basic algorithm cannot schedule the
                                 module; the hyperplane transform may apply *)
  | Unverified_window        (** W114: a window's safety rests on a
                                 non-affine use the verifier cannot bound *)
  | Opaque_classifiable      (** W115: a subscript demoted to [Opaque] that the
                                 symbolic distance solver could classify (the
                                 inferred form is in the message) *)
  | Inspector_static         (** W116: an inspector/executor schedule whose
                                 runtime distance test a parameter bound
                                 annotation would decide statically *)
  | Sequential_doall         (** W120: a scheduled DOALL's constant trip count
                                 is below the pool's wake threshold, so it
                                 runs effectively sequentially *)
  | Policy_stale             (** W121: a cached scheduling-policy table was
                                 tuned for a different host core count, so the
                                 run fell back to the static cost model *)
  | Bad_policy               (** E025: a scheduling-policy table is ill-formed
                                 for this flowchart (unknown nest key, collapse
                                 on a nest heading no perfect DOALL band, or
                                 a chunk floor below 1) *)
  (* The compile service (E03x).  Per-request diagnostics from
     [psc serve]: the request is answered with the diagnostic, the
     server itself stays up. *)
  | Bad_request              (** E030: malformed request JSON, unknown
                                 operation, or a missing required field *)
  | Deadline_exceeded        (** E031: the request's deadline expired before
                                 the pipeline finished *)
  | Server_draining          (** E032: the server is draining (SIGTERM or a
                                 shutdown request) and accepts no new work *)
  | Server_overloaded        (** E033: the bounded request queue is full, so
                                 the server shed this request instead of
                                 queueing it unboundedly — retry with backoff *)

val code_id : code -> string
(** The stable identifier, e.g. ["E010"]. *)

val code_severity : code -> severity
(** Severity is a function of the code: [E*] are errors, [W*] warnings. *)

type t = {
  d_code : code;
  d_msg : string;
  d_loc : Ps_lang.Loc.span;
}

val diag : code -> Ps_lang.Loc.span -> ('a, Format.formatter, unit, t) format4 -> 'a
(** [diag code span fmt ...] builds a diagnostic with a formatted message. *)

val is_error : t -> bool

val errors : t list -> t list

val warnings : t list -> t list

val sort : t list -> t list
(** Stable order: errors first, then by source position, then by code. *)

type format = Text | Json

val pp : t Fmt.t
(** ["error[E010]: <msg> (line 4, characters 3-9)"]. *)

val to_json : t -> string
(** One diagnostic as a JSON object. *)

val render : format -> t list -> string
(** All diagnostics in the given format; for [Json] a single array.  The
    text rendering of an empty list is the empty string; the JSON one is
    ["[]"]. *)

val summary : t list -> string
(** ["2 errors, 1 warning"]. *)

val exit_code : ?werror:bool -> t list -> int
(** [0] when nothing fatal: errors always count, warnings count when
    [werror] is set. *)
