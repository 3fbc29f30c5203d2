(** Wire protocol of the compile service.

    One request per line, one response per line, both JSON objects.
    Requests are parsed and responses rendered with the shared
    [Psc.Json] module.  Real values cross the
    wire as ["%.17g"] strings, never as JSON numbers, so a client that
    parses them with [float_of_string] recovers the exact IEEE double
    the server computed — the differential fuzzer's server path depends
    on this round trip being bit-exact.

    The protocol is pipelined: a client may write any number of request
    lines before reading, and the server answers each exactly once —
    but not necessarily in arrival order, since requests from one
    connection are handled by concurrent workers.  The ["id"] member is
    the correlation handle: every response echoes the id of the request
    it answers, so a pipelining client matches responses by id, never
    by position. *)

type op = Compile | Schedule | Run | Emit_c | Lint | Tune | Stats | Shutdown

val op_name : op -> string
(** The wire name: ["compile"], ["schedule"], ["run"], ["emit-c"],
    ["lint"], ["tune"], ["stats"], ["shutdown"]. *)

val op_of_name : string -> op option

type source =
  | Inline of string     (** the ["source"] member: program text *)
  | From_file of string  (** the ["source_file"] member: a path the server reads *)

type request = {
  rq_id : string;  (** the ["id"] member re-rendered verbatim, default ["null"] *)
  rq_op : op;
  rq_source : source option;
  rq_module : string option;       (** module to schedule; [None] = the default *)
  rq_flags : Psc.Exec.sched_flags; (** the ["flags"] object; all default false *)
  rq_scalars : (string * int) list;(** integer inputs for [run] / [emit-c --main] *)
  rq_deadline_ms : int option;     (** per-request budget *)
  rq_main : bool;                  (** emit-c: also emit the main() harness *)
  rq_trace_id : string option;     (** the ["trace_id"] member, echoed in every reply *)
  rq_parent_span : string option;  (** client span id the server's request span is a child of *)
}

val parse_request : string -> (request, string * string) result
(** Parse one request line.  On error the first component is still the
    rendered id (when one could be recovered) so the E030 response can
    be correlated with the request that caused it. *)

val reject_fields : string -> string * string * string option
(** [(id, op, trace_id)] of a raw request line, for reject paths
    (overload shedding) that must correlate an answer without the cost
    or strictness of building a full request.  Unrecoverable members
    degrade to ["null"] / ["invalid"] / [None] rather than failing. *)

(** {2 JSON writer aliases}

    The shared [Psc.Json] writers under their older names. *)

val jstr : string -> string
val jint : int -> string
val jarr : string list -> string
val jobj : (string * string) list -> string

val output_json : string * Psc.Value.value -> string
(** One module output as a JSON object: scalars as
    [{name;kind:"scalar";elem;value}], arrays as
    [{name;kind:"array";elem;ty?;dims:[[lo,hi],...];values:[...]}] with
    the values in row-major declared-box order, each rendered as a
    string: a real as ["%.17g"], an int or enum ordinal in decimal, a
    bool as [true] or [false]. *)

val ok_response : id:string -> cached:bool -> (string * string) list -> string
(** [{"id":…,"ok":true,"cached":…,<fields>}]. *)

val error_response : id:string -> Psc.Diag.t list -> string
(** A failed request carrying the diagnostics array of the unified
    diagnostics engine, so clients see the same E0xx codes the CLI
    prints. *)

val error_message : id:string -> string -> string
(** A failed request with a bare ["error"] string (compile and runtime
    errors that carry no diagnostic object). *)

val with_trace_id : trace_id:string option -> string -> string
(** Stamp the request's trace context onto an already-rendered response
    line: with [Some tid] the object gains a leading ["trace_id"] member;
    with [None] the line is returned unchanged.  Runs as a post-pass so
    every reply shape — ok, diagnostics, deadline, E030 — echoes it. *)
