(** Loop-level profiler: per-flowchart-node execution counts and
    cumulative nanoseconds, mapped back to source via {!Ps_lang.Loc}.

    Callers are expected to guard the clock reads on {!enabled} — one
    atomic load — so a disabled profiler adds no timing overhead. *)

val enabled : unit -> bool

val set_enabled : bool -> unit
(** Enabling also {!reset}s registered sites. *)

val reset : unit -> unit

type site

val register : ?loc:Ps_lang.Loc.span -> kind:string -> string -> site
(** One site per flowchart node; call once at compile time. *)

val hit : site -> count:int -> ns:int -> unit
(** Record [count] executions taking [ns] nanoseconds in all
    (lock-free): a loop hits its site once per run, an equation once
    per evaluation or once per row with the row's point count. *)

type row = {
  r_kind : string;
  r_name : string;
  r_loc : string option;
  r_count : int;
  r_ns : int;
}

val rows : unit -> row list
(** Sites with at least one hit, hottest (most cumulative ns) first. *)

val render_table : ?limit:int -> unit -> string
(** Text table of the top [limit] (default 10) rows. *)
