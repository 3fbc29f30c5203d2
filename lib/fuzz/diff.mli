(** The differential oracle: run one program through every execution
    path and compare outputs element-wise against the sequential
    reference.  Interpreter paths must agree bit for bit; the C path is
    compared through its checksums, also bit for bit.  A defined runtime
    trap (zero divisor) agrees with a reference trap; a one-sided trap
    is a mismatch. *)

type path =
  | Seq        (** plain sequential interpreter: the reference *)
  | Nowin      (** full storage, no virtual windows *)
  | Passes     (** sink + fuse + trim *)
  | Steal      (** work-stealing pool *)
  | Collapse   (** pooled, DOALL bands collapsed, bounds trimmed *)
  | Group      (** schedule translation-validated (E023/E024 trap), then
                   pooled: DOGROUP loops run one residue class per task *)
  | Inspector  (** every DOGROUP(g) demoted to DOINSPECT of the constant
                   g: the runtime inspector re-derives the partition *)
  | Hyper      (** hyperplane-transformed module, sequential *)
  | Hyper_par  (** hyperplane-transformed, pooled + collapsed *)
  | Auto       (** pooled, nests steered by the static cost model's
                   per-loop policy table (must be bit-identical: policies
                   change shape, never results) *)
  | Cc         (** emitted C, compiled and executed *)
  | Server     (** a `psc serve --stdio` subprocess, outputs over the wire *)

val path_name : path -> string
val path_of_name : string -> path option

type outcome =
  | Outputs of (string * Psc.Value.value) list
  | Checksums of (string * float) list
  | Trap of string
  | Skip of string

type case_result = {
  cr_outcomes : (path * outcome) list;  (** reference first *)
  cr_verdict : string option;           (** [None] = every path agreed *)
}

val have_cc : bool Lazy.t

val default_inputs :
  Psc.Elab.emodule -> scalars:(string * int) list -> (string * Psc.Value.value) list
(** {!Psc.default_inputs}, under its old name. *)

val c_checksums : string -> outcome
(** Build the C text of an emitted main() as the C path does (cc -O1
    -ffp-contract=off, so no multiply-add is contracted), run it and
    read one checksum per result line ([Trap] when the build or the
    binary fails).  Guard a call with {!have_cc}. *)

val compare_checksums :
  (string * Psc.Value.value) list -> (string * float) list -> string option
(** [compare_checksums ref_out sums] judges the C path's checksums
    against the reference outputs, bit for bit; [None] when they agree. *)

val check :
  ?pool_size:int ->
  paths:path list ->
  Psc.t ->
  inputs:(string * Psc.Value.value) list ->
  scalars:(string * int) list ->
  case_result

val check_source :
  ?pool_size:int -> paths:path list -> scalars:(string * int) list -> string -> case_result
(** Load a source text, derive inputs, differentiate.  Load errors
    become a verdict (a fuzz-generated program must always compile). *)

val check_spec : ?pool_size:int -> paths:path list -> Gen.spec -> case_result
