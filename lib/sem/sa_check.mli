(** Single-assignment and coverage checking.

    Every non-input data item must be defined; no element may be defined
    twice; slice definitions should jointly cover the declared extents.
    The checks are symbolic (linear forms over the module inputs):
    decidable cases yield errors, undecidable ones warnings.

    Diagnostics are reported through the unified {!Ps_diag.Diag} engine
    with stable codes: [E001] undefined data, [E002] conflicting
    definitions, [E003] missing record field, [W101] possible overlap,
    [W102] unverified coverage. *)

type diagnostic = Ps_diag.Diag.t

val check_program : Elab.eprogram -> diagnostic list

val errors : diagnostic list -> diagnostic list
(** The hard failures among a diagnostic list. *)

val pp_diagnostic : diagnostic Fmt.t

(** {1 Symbolic slice reasoning}

    Exposed for the verifier and for targeted tests. *)

type slice_pos =
  | Point of Linexpr.t               (** a fixed subscript with a linear value *)
  | Range of Linexpr.t * Linexpr.t   (** an index variable over [lo, hi] *)
  | Unknown                          (** a non-linear fixed subscript *)
(** The symbolic extent of one subscript position of one definition. *)

val provably_disjoint : slice_pos -> slice_pos -> bool
(** Whether two subscript sets cannot intersect for any input values
    consistent with the declared bounds.  Sound but incomplete: [false]
    means "may overlap". *)

val range_facts : Elab.emodule -> Linexpr.t list
(** Non-emptiness facts [hi - lo >= 0] of every subrange in the module,
    usable as {!Linexpr.prove_nonneg} assumptions. *)
