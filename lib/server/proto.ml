(* Wire protocol of the compile service.

   One request per line, one response per line, both JSON objects, read
   and written with the shared [Psc.Json] module (no external
   dependency); responses are built from already-rendered fragments,
   never through an intermediate tree.  Real values cross the wire as
   "%.17g" strings, never as JSON numbers, so a client that parses them
   with [float_of_string] recovers the exact IEEE double the server
   computed — the differential fuzzer's server path depends on this
   round trip being bit-exact.

   The protocol is pipelined: a client may write any number of request
   lines before reading, and the server answers each exactly once — but
   not necessarily in arrival order, since requests from one connection
   are handled by concurrent workers.  The "id" member is the
   correlation handle: every response (success, diagnostic failure,
   E030/E032/E033 reject) echoes the id of the request it answers, so a
   pipelining client matches responses by id, never by position. *)

module Json = Psc.Json

type op = Compile | Schedule | Run | Emit_c | Lint | Tune | Stats | Shutdown

let op_name = function
  | Compile -> "compile"
  | Schedule -> "schedule"
  | Run -> "run"
  | Emit_c -> "emit-c"
  | Lint -> "lint"
  | Tune -> "tune"
  | Stats -> "stats"
  | Shutdown -> "shutdown"

let op_of_name = function
  | "compile" -> Some Compile
  | "schedule" -> Some Schedule
  | "run" -> Some Run
  | "emit-c" -> Some Emit_c
  | "lint" -> Some Lint
  | "tune" -> Some Tune
  | "stats" -> Some Stats
  | "shutdown" -> Some Shutdown
  | _ -> None

type source = Inline of string | From_file of string

type request = {
  rq_id : string;  (* the "id" member re-rendered verbatim, default "null" *)
  rq_op : op;
  rq_source : source option;
  rq_module : string option;
  rq_flags : Psc.Exec.sched_flags;
  rq_scalars : (string * int) list;
  rq_deadline_ms : int option;
  rq_main : bool;  (* emit-c: also emit the main() harness *)
  rq_trace_id : string option;  (* trace context, echoed in the response *)
  rq_parent_span : string option;
}

(* ------------------------------------------------------------------ *)
(* Writing *)

(* Kept as aliases of the shared writer for callers outside the
   server library. *)
let jstr = Json.str
let jint = Json.int
let jarr = Json.arr
let jobj = Json.obj

(* ------------------------------------------------------------------ *)
(* Reading *)

(* Re-render a parsed id so the response echoes what the client sent.
   Integral numbers print without the decimal point JSON parsing gave
   them. *)
let render_id (j : Json.t) =
  match j with
  | Json.Str s -> Json.str s
  | Json.Num f ->
    if Float.is_integer f && Float.abs f < 1e15 then
      string_of_int (int_of_float f)
    else Printf.sprintf "%.17g" f
  | Json.Bool b -> Json.bool b
  | Json.Null -> "null"
  | Json.Obj _ | Json.Arr _ -> "null"

let id_of j = match Json.member "id" j with Some v -> render_id v | None -> "null"

let parse_request (line : string) : (request, string * string) result =
  (* On error the first component is still the rendered id (when one
     could be recovered) so the E030 response can be correlated. *)
  match Json.parse line with
  | exception Json.Parse_error m -> Error ("null", "malformed JSON: " ^ m)
  | Json.Obj _ as j -> (
    let id = id_of j in
    let str name = Json.member_str name j in
    match Json.member "op" j with
    | None -> Error (id, "missing required field: op")
    | Some (Json.Str opname) -> (
      match op_of_name opname with
      | None -> Error (id, "unknown operation: " ^ opname)
      | Some op ->
        let source =
          match (str "source", str "source_file") with
          | Some s, _ -> Some (Inline s)
          | None, Some f -> Some (From_file f)
          | None, None -> None
        in
        let flag name =
          match Json.member "flags" j with
          | Some fl -> Json.member_bool name fl = Some true
          | None -> false
        in
        let flags =
          { Psc.Exec.sf_sink = flag "sink";
            sf_fuse = flag "fuse";
            sf_trim = flag "trim";
            sf_collapse = flag "collapse" }
        in
        (* A scalar is an integer in [int] range: anything else is
           refused by name, never truncated, dropped or wrapped. *)
        let int_of = function
          | Json.Num f when Float.is_integer f && f >= -0x1p62 && f < 0x1p62 ->
            Some (int_of_float f)
          | _ -> None
        in
        let scalars =
          match Json.member "scalars" j with
          | Some (Json.Obj kvs) -> List.map (fun (k, v) -> (k, int_of v)) kvs
          | _ -> []
        in
        match List.find_opt (fun (_, n) -> n = None) scalars with
        | Some (k, _) ->
          Error (id, Printf.sprintf "scalar %s must be an integer in int range" k)
        | None ->
          Ok
            { rq_id = id;
              rq_op = op;
              rq_source = source;
              rq_module = str "module";
              rq_flags = flags;
              rq_scalars = List.map (fun (k, n) -> (k, Option.get n)) scalars;
              rq_deadline_ms = Option.map int_of_float (Json.member_num "deadline_ms" j);
              rq_main = Json.member_bool "main" j = Some true;
              rq_trace_id = str "trace_id";
              rq_parent_span = str "parent_span" })
    | Some _ -> Error (id, "field op must be a string"))
  | _ -> Error ("null", "request must be a JSON object")

(* The reject paths (overload shedding above all) need the correlation
   fields of a line without the cost or strictness of building a full
   request: a request the server is about to shed may name an unknown
   op or miss its source, yet its E033 answer must still carry the id
   and trace context the client sent. *)
let reject_fields (line : string) : string * string * string option =
  match Json.parse line with
  | Json.Obj _ as j ->
    ( id_of j,
      Option.value (Json.member_str "op" j) ~default:"invalid",
      Json.member_str "trace_id" j )
  | _ | (exception Json.Parse_error _) -> ("null", "invalid", None)

(* ------------------------------------------------------------------ *)
(* Output values *)

let elem_name (k : Psc.Value.elem_kind) =
  match k with
  | Psc.Value.KInt -> "int"
  | Psc.Value.KReal -> "real"
  | Psc.Value.KBool -> "bool"
  | Psc.Value.KEnum _ -> "enum"

let scalar_fields (s : Psc.Value.scalar) =
  match s with
  | Psc.Value.Sc_int n -> [ ("elem", Json.str "int"); ("value", Json.str (string_of_int n)) ]
  | Psc.Value.Sc_real v ->
    [ ("elem", Json.str "real"); ("value", Json.str (Printf.sprintf "%.17g" v)) ]
  | Psc.Value.Sc_bool b -> [ ("elem", Json.str "bool"); ("value", Json.str (Json.bool b)) ]
  | Psc.Value.Sc_enum (ty, o) ->
    [ ("elem", Json.str "enum"); ("ty", Json.str ty); ("value", Json.str (string_of_int o)) ]
  | Psc.Value.Sc_record _ -> [ ("elem", Json.str "record"); ("value", Json.str "<record>") ]

let scalar_text (s : Psc.Value.scalar) =
  match s with
  | Psc.Value.Sc_int n -> string_of_int n
  | Psc.Value.Sc_real v -> Printf.sprintf "%.17g" v
  | Psc.Value.Sc_bool b -> Json.bool b
  | Psc.Value.Sc_enum (_, o) -> string_of_int o
  | Psc.Value.Sc_record _ -> "<record>"

(* Iterate the declared box in row-major ascending order — the same
   order a client rebuilding the array with [Exec.array_real] visits. *)
let iter_box (s : Psc.Value.slab) f =
  let n = Psc.Value.ndims s in
  let ix = Array.map (fun di -> di.Psc.Value.di_lo) s.Psc.Value.s_dims in
  if Array.exists (fun di -> di.Psc.Value.di_extent <= 0) s.Psc.Value.s_dims
  then ()
  else begin
    let rec advance p =
      if p < 0 then false
      else begin
        let di = s.Psc.Value.s_dims.(p) in
        ix.(p) <- ix.(p) + 1;
        if ix.(p) < di.Psc.Value.di_lo + di.Psc.Value.di_extent then true
        else begin
          ix.(p) <- di.Psc.Value.di_lo;
          advance (p - 1)
        end
      end
    in
    let continue_ = ref true in
    while !continue_ do
      f ix;
      continue_ := advance (n - 1)
    done
  end

let output_json (name, (v : Psc.Value.value)) =
  match v with
  | Psc.Value.Vscalar s ->
    Json.obj ([ ("name", Json.str name); ("kind", Json.str "scalar") ] @ scalar_fields s)
  | Psc.Value.Varray sl ->
    let dims =
      Array.to_list sl.Psc.Value.s_dims
      |> List.map (fun di ->
             Json.arr
               [ Json.int di.Psc.Value.di_lo;
                 Json.int (di.Psc.Value.di_lo + di.Psc.Value.di_extent - 1) ])
    in
    let values = ref [] in
    iter_box sl (fun ix ->
        values := Json.str (scalar_text (Psc.Value.get_scalar sl ix)) :: !values);
    let ty = match sl.Psc.Value.s_kind with Psc.Value.KEnum ty -> Some ty | _ -> None in
    Json.obj
      ([ ("name", Json.str name);
         ("kind", Json.str "array");
         ("elem", Json.str (elem_name sl.Psc.Value.s_kind)) ]
      @ Json.opt "ty" Json.str ty
      @ [ ("dims", Json.arr dims); ("values", Json.arr (List.rev !values)) ])

(* ------------------------------------------------------------------ *)
(* Responses *)

let ok_response ~id ~cached fields =
  Json.obj
    ([ ("id", id); ("ok", Json.bool true); ("cached", Json.bool cached) ] @ fields)

(* A failed request carries the diagnostics array of the unified
   diagnostics engine, so clients see the same E0xx codes the CLI
   prints. *)
let error_response ~id (diags : Psc.Diag.t list) =
  Json.obj
    [ ("id", id);
      ("ok", Json.bool false);
      ("diagnostics", Psc.Diag.render Psc.Diag.Json diags) ]

let error_message ~id msg =
  Json.obj [ ("id", id); ("ok", Json.bool false); ("error", Json.str msg) ]

(* Stamp the client's trace context onto an already-rendered response
   line.  Every reply — success, diagnostic failure, deadline, even an
   E030 for a line that parsed far enough to carry an id — must echo
   the request's trace_id, so this runs as a post-pass rather than in
   each response builder. *)
let with_trace_id ~trace_id response =
  match trace_id with
  | None -> response
  | Some tid ->
    if String.length response > 0 && response.[0] = '{' then
      "{" ^ Json.str "trace_id" ^ ":" ^ Json.str tid ^ ","
      ^ String.sub response 1 (String.length response - 1)
    else response
