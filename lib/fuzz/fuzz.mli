(** Campaign driver: generate, differentiate, shrink, archive.

    Failures are minimized and written to the corpus directory as
    standalone .ps files with a scalar directive comment
    ([(*! fuzz scalars: N=4 T=3 *)]), replayable without the
    generator. *)

type config = {
  fz_seed : int;
  fz_count : int;
  fz_paths : Diff.path list;
  fz_pool : int;
  fz_out_corpus : string option;
  fz_log : string -> unit;
}

type failure = {
  f_index : int;
  f_spec : Gen.spec;
  f_verdict : string;
  f_min : Gen.spec;          (** shrunk spec (equal to [f_spec] if unshrinkable) *)
  f_min_verdict : string;
  f_file : string option;    (** corpus file, when [fz_out_corpus] was set *)
}

type report = {
  r_count : int;
  r_agreed : int;
  r_hyper_applied : int;     (** cases where a hyperplane path actually ran *)
  r_cc_run : int;            (** cases where the C path compiled and ran *)
  r_failures : failure list;
}

val default_paths : Diff.path list

val campaign : config -> report

val parse_scalars : string -> (string * int) list
(** Scalar directive of a corpus source ([[]] if absent). *)

val replay_source : ?pool_size:int -> paths:Diff.path list -> string -> (unit, string) result
(** Differentiate one corpus source.  Scalars come from its directive;
    any scalar input not named there defaults to 6.  [Error] carries the
    verdict. *)
