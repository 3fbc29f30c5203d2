(* The differential oracle: one generated (or corpus) program, run
   through every execution path the compiler offers, outputs compared
   element-wise against the sequential reference.

   All interpreter paths must agree bit for bit — collapse, stealing and
   the hyperplane transformation reorder iterations but never the
   operations inside one element's expression.  The C path is compared
   through the emitted main()'s checksums (same row-major order, same
   IEEE arithmetic, printed with 17 significant digits so they round-trip)
   bit for bit: the binary is built with -ffp-contract=off, so the C
   compiler may not fuse a multiply and an add the interpreter rounds
   separately.  An exact C oracle is the one check independent of the
   interpreter's compiled closures, which every interpreter path shares.

   A path that traps at runtime agrees with a reference that also traps
   (the trap itself is defined semantics: the interpreter and the
   emitted C both stop on zero divisors); a trap on one side only is a
   mismatch. *)

type path =
  | Seq        (* plain sequential interpreter: the reference *)
  | Nowin      (* full storage, no virtual windows *)
  | Passes     (* sink + fuse + trim *)
  | Steal      (* work-stealing pool *)
  | Collapse   (* pooled, DOALL bands collapsed, bounds trimmed *)
  | Group      (* schedule translation-validated, then pooled: DOGROUP
                  loops run one residue class per task *)
  | Inspector  (* every DOGROUP(g) demoted to a DOINSPECT of the
                  constant g, so the runtime inspector re-derives the
                  partition *)
  | Hyper      (* hyperplane-transformed module, sequential *)
  | Hyper_par  (* hyperplane-transformed, pooled + collapsed *)
  | Auto       (* pooled, nests steered by the static cost model's
                  per-loop policy table *)
  | Cc         (* emitted C, compiled and executed *)
  | Server     (* a `psc serve --stdio` subprocess, outputs over the wire *)

let path_name = function
  | Seq -> "seq"
  | Nowin -> "nowin"
  | Passes -> "passes"
  | Steal -> "steal"
  | Collapse -> "collapse"
  | Group -> "group"
  | Inspector -> "inspector"
  | Hyper -> "hyper"
  | Hyper_par -> "hyper-par"
  | Auto -> "auto"
  | Cc -> "c"
  | Server -> "server"

let path_of_name = function
  | "seq" -> Some Seq
  | "nowin" -> Some Nowin
  | "passes" -> Some Passes
  | "steal" -> Some Steal
  | "collapse" -> Some Collapse
  | "group" -> Some Group
  | "inspector" | "inspect" -> Some Inspector
  | "hyper" -> Some Hyper
  | "hyper-par" -> Some Hyper_par
  | "auto" -> Some Auto
  | "c" | "cc" -> Some Cc
  | "server" -> Some Server
  | _ -> None

type outcome =
  | Outputs of (string * Psc.Value.value) list
  | Checksums of (string * float) list  (* the C path reports sums only *)
  | Trap of string                      (* defined runtime trap *)
  | Skip of string                      (* path not applicable here *)

type case_result = {
  cr_outcomes : (path * outcome) list;  (* reference first *)
  cr_verdict : string option;           (* [None] = every path agreed *)
}

let have_cc =
  lazy (Sys.command "command -v cc > /dev/null 2>&1" = 0)

(* [Psc.default_inputs] under its old name, which perfbench/ calls. *)
let default_inputs = Psc.default_inputs

(* ------------------------------------------------------------------ *)
(* Element-wise comparison *)

let eq_float a b = a = b || Float.compare a b = 0

let eq_scalar (a : Psc.Value.scalar) (b : Psc.Value.scalar) =
  match (a, b) with
  | Psc.Value.Sc_int x, Psc.Value.Sc_int y -> x = y
  | Psc.Value.Sc_real x, Psc.Value.Sc_real y -> eq_float x y
  | Psc.Value.Sc_bool x, Psc.Value.Sc_bool y -> x = y
  | Psc.Value.Sc_enum (_, x), Psc.Value.Sc_enum (_, y) -> x = y
  | _ -> Psc.Value.equal_scalar a b

let pp_sc (s : Psc.Value.scalar) =
  match s with
  | Psc.Value.Sc_int n -> string_of_int n
  | Psc.Value.Sc_real v -> Printf.sprintf "%.17g" v
  | Psc.Value.Sc_bool b -> string_of_bool b
  | Psc.Value.Sc_enum (_, o) -> Printf.sprintf "enum#%d" o
  | Psc.Value.Sc_record _ -> "<record>"

let compare_value name (a : Psc.Value.value) (b : Psc.Value.value) : string option =
  match (a, b) with
  | Psc.Value.Vscalar x, Psc.Value.Vscalar y ->
    if eq_scalar x y then None
    else Some (Printf.sprintf "%s: %s vs %s" name (pp_sc x) (pp_sc y))
  | Psc.Value.Varray sa, Psc.Value.Varray sb ->
    let dims_of (s : Psc.Value.slab) =
      Array.to_list
        (Array.map (fun di -> (di.Psc.Value.di_lo, di.Psc.Value.di_extent)) s.Psc.Value.s_dims)
    in
    if dims_of sa <> dims_of sb then Some (Printf.sprintf "%s: shapes differ" name)
    else begin
      let bad = ref None in
      Psc.Value.iter_box sa (fun ix ->
          if !bad = None then begin
            let x = Psc.Value.get_scalar sa ix and y = Psc.Value.get_scalar sb ix in
            if not (eq_scalar x y) then
              bad :=
                Some
                  (Printf.sprintf "%s[%s]: %s vs %s" name
                     (String.concat ", " (Array.to_list (Array.map string_of_int ix)))
                     (pp_sc x) (pp_sc y))
          end);
      !bad
    end
  | _ -> Some (Printf.sprintf "%s: scalar vs array" name)

let compare_outputs (ref_out : (string * Psc.Value.value) list)
    (out : (string * Psc.Value.value) list) : string option =
  if List.length ref_out <> List.length out then Some "different result sets"
  else
    List.fold_left
      (fun acc (name, v) ->
        match acc with
        | Some _ -> acc
        | None -> (
          match List.assoc_opt name out with
          | None -> Some (Printf.sprintf "%s: missing result" name)
          | Some v' -> compare_value name v v'))
      None ref_out

let compare_checksums (ref_out : (string * Psc.Value.value) list)
    (sums : (string * float) list) : string option =
  List.fold_left
    (fun acc (name, c) ->
      match acc with
      | Some _ -> acc
      | None -> (
        match List.assoc_opt name ref_out with
        | None -> Some (Printf.sprintf "%s: C result unknown to the interpreter" name)
        | Some v ->
          let i = Psc.checksum v in
          if eq_float c i then None
          else Some (Printf.sprintf "%s: C checksum %.17g vs interpreter %.17g" name c i)))
    None sums

(* ------------------------------------------------------------------ *)
(* Path runners *)

let trapping f = try f () with Psc.Error m -> Trap m

let interp_outputs f = trapping (fun () -> Outputs (f ()).Psc.Exec.outputs)

(* The first local array the hyperplane transformation accepts. *)
let hyper_project tp =
  let em = Psc.default_module tp in
  let targets =
    List.filter_map
      (fun (d : Psc.Elab.data) ->
        if Psc.Stypes.dims d.Psc.Elab.d_ty = [] then None else Some d.Psc.Elab.d_name)
      em.Psc.Elab.em_locals
  in
  let rec try_targets = function
    | [] -> None
    | target :: rest -> (
      match Psc.hyperplane ~target tp with
      | tp', tr -> Some (tp', tr.Psc.Transform.tr_module.Psc.Ast.m_name)
      | exception Psc.Error _ -> try_targets rest)
  in
  try_targets targets

(* The group path: translation-validate the schedule first, so a
   grouped or inspected flowchart the verifier rejects (E023/E024)
   fails the case even when its outputs happen to agree, then run it
   on the pool, where DOGROUP loops execute one residue class per
   task. *)
let run_group ~pool tp ~inputs : outcome =
  match Psc.schedule (Psc.default_module tp) with
  | exception Psc.Error m -> Trap ("schedule: " ^ m)
  | sc ->
    let errors =
      List.filter
        (fun (d : Psc.Diag.t) ->
          let id = Psc.Diag.code_id d.Psc.Diag.d_code in
          id <> "" && id.[0] = 'E')
        (Psc.verify sc)
    in
    if errors <> [] then
      Trap
        (Printf.sprintf "verify: %s"
           (String.concat "; "
              (List.map (fun (d : Psc.Diag.t) -> Psc.Diag.code_id d.Psc.Diag.d_code) errors)))
    else interp_outputs (fun () -> Psc.run ~pool tp ~inputs)

(* The inspector path: demote every DOGROUP(g) in the scheduled
   flowchart to a DOINSPECT of the constant distance g.  The runtime
   inspector must re-derive the same residue-class partition the
   scheduler chose statically, so outputs stay bit-exact; a program
   with no grouped loop degrades to a plain pooled run. *)
let run_inspector ~pool tp ~inputs : outcome =
  let rec demote descs =
    List.map
      (function
        | Psc.Flowchart.D_loop l ->
          let kind =
            match l.Psc.Flowchart.lp_kind with
            | Psc.Flowchart.Grouped g ->
              Psc.Flowchart.Inspected (Psc.Linexpr.to_expr (Psc.Linexpr.of_int g))
            | k -> k
          in
          Psc.Flowchart.D_loop
            { l with
              Psc.Flowchart.lp_kind = kind;
              Psc.Flowchart.lp_body = demote l.Psc.Flowchart.lp_body }
        | d -> d)
      descs
  in
  match Psc.schedule (Psc.default_module tp) with
  | exception Psc.Error m -> Trap ("schedule: " ^ m)
  | sc ->
    let em = Psc.default_module tp in
    let opts = { Psc.Exec.default_opts with Psc.Exec.pool = Some pool } in
    interp_outputs (fun () ->
        Psc.wrap (fun () ->
            Psc.Exec.run ~opts
              ~flowchart:(demote sc.Psc.sc_flowchart)
              ~windows:sc.Psc.sc_windows ~prog:tp.Psc.prog em ~inputs))

(* Build an emitted main() with the oracle's flags, run it and read its
   checksum lines. *)
let c_checksums csrc : outcome =
  let dir = Filename.temp_file "ps_fuzz" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let cleanup () = ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))) in
  Fun.protect ~finally:cleanup @@ fun () ->
  let src = Filename.concat dir "prog.c" in
  let exe = Filename.concat dir "prog" in
  let oc = open_out src in
  output_string oc csrc;
  close_out oc;
  let rc =
    Sys.command
      (Printf.sprintf "cc -O1 -ffp-contract=off -o %s %s -lm 2> %s"
         (Filename.quote exe)
         (Filename.quote src)
         (Filename.quote (Filename.concat dir "cc.log")))
  in
  if rc <> 0 then Trap (Printf.sprintf "cc failed (exit %d)" rc)
  else begin
    let ic = Unix.open_process_in (Filename.quote exe) in
    let lines = ref [] in
    (try
       while true do
         lines := input_line ic :: !lines
       done
     with End_of_file -> ());
    let status = Unix.close_process_in ic in
    match status with
    | Unix.WEXITED 0 ->
      let parse line =
        match String.split_on_char ' ' line with
        | [ name; v ] -> (
          match float_of_string_opt v with
          | Some f -> Some (name, f)
          | None -> None)
        | _ -> None
      in
      let sums = List.filter_map parse (List.rev !lines) in
      if sums = [] then Trap "C binary produced no checksums" else Checksums sums
    | Unix.WEXITED n -> Trap (Printf.sprintf "C binary exited with %d" n)
    | Unix.WSIGNALED n | Unix.WSTOPPED n ->
      Trap (Printf.sprintf "C binary killed by signal %d" n)
  end

let run_c tp ~scalars : outcome =
  if not (Lazy.force have_cc) then Skip "no C compiler"
  else
    match Psc.emit_c_main ~scalars tp with
    | exception Psc.Error m -> Trap ("emit: " ^ m)
    | csrc -> c_checksums csrc

(* ------------------------------------------------------------------ *)
(* The server path: run the program through a `psc serve --stdio`
   subprocess and rebuild the outputs from the wire.  The server
   serializes reals as "%.17g" strings, so the round trip is bit-exact
   and the usual element-wise judge applies unchanged.  One subprocess
   is shared by the whole campaign (spawned lazily, respawned if it
   dies) — the point is to exercise the service's cache and protocol on
   hundreds of programs, not to pay a process start per case. *)

let server_exe () =
  match Sys.getenv_opt "PSC_SERVE_EXE" with
  | Some p -> if Sys.file_exists p then Some p else None
  | None ->
    let self = Sys.executable_name in
    let is_psc =
      let base = Filename.basename self in
      String.length base >= 8 && String.sub base 0 8 = "psc_main"
    in
    List.find_opt Sys.file_exists
      ((if is_psc then [ self ] else [])
      @ [ "_build/default/bin/psc_main.exe"; "../bin/psc_main.exe";
          "bin/psc_main.exe" ])

let server_proc : (in_channel * out_channel) option ref = ref None
let server_mutex = Mutex.create ()
let server_cleanup_registered = ref false

let stop_server () =
  match !server_proc with
  | None -> ()
  | Some ((_, oc) as p) ->
    server_proc := None;
    (try
       output_string oc "{\"op\":\"shutdown\"}\n";
       flush oc
     with Sys_error _ -> ());
    ignore (Unix.close_process p)

let acquire_server () =
  match !server_proc with
  | Some p -> Some p
  | None -> (
    match server_exe () with
    | None -> None
    | Some exe ->
      let p =
        Unix.open_process (Filename.quote exe ^ " serve --stdio 2>/dev/null")
      in
      server_proc := Some p;
      if not !server_cleanup_registered then begin
        server_cleanup_registered := true;
        at_exit stop_server
      end;
      Some p)

exception Unsupported_output of string

module Json = Psc.Json

(* Rebuild a value from the response.  Array values come in row-major
   declared-box order, the order the builder numbers its points in. *)
let value_of_json (j : Json.t) : string * Psc.Value.value =
  let str name = Json.member_str name j in
  let name = match str "name" with Some n -> n | None -> raise (Unsupported_output "nameless output") in
  let elem = Option.value (str "elem") ~default:"?" in
  match str "kind" with
  | Some "scalar" -> (
    let v = match str "value" with Some v -> v | None -> raise (Unsupported_output name) in
    match elem with
    | "int" -> (name, Psc.Exec.scalar_int (int_of_string v))
    | "real" -> (name, Psc.Exec.scalar_real (float_of_string v))
    | "bool" -> (name, Psc.Exec.scalar_bool (bool_of_string v))
    | "enum" ->
      let ty = Option.value (str "ty") ~default:"" in
      (name, Psc.Value.Vscalar (Psc.Value.Sc_enum (ty, int_of_string v)))
    | k -> raise (Unsupported_output (name ^ ": scalar elem " ^ k)))
  | Some "array" ->
    let dims =
      match Json.member "dims" j with
      | Some (Json.Arr ds) ->
        List.map
          (function
            | Json.Arr [ Json.Num lo; Json.Num hi ] ->
              (int_of_float lo, int_of_float hi)
            | _ -> raise (Unsupported_output (name ^ ": bad dims")))
          ds
      | _ -> raise (Unsupported_output (name ^ ": bad dims"))
    in
    let values =
      match Json.member "values" j with
      | Some (Json.Arr vs) ->
        Array.of_list
          (List.map
             (function
               | Json.Str s -> s
               | _ -> raise (Unsupported_output (name ^ ": bad value")))
             vs)
      | _ -> raise (Unsupported_output (name ^ ": bad values"))
    in
    let value parse q = parse values.(q) in
    (match elem with
     | "real" ->
       (name, Ps_models.Models.numbered Psc.Exec.array_real ~dims (value float_of_string))
     | "int" ->
       (name, Ps_models.Models.numbered Psc.Exec.array_int ~dims (value int_of_string))
     | k -> raise (Unsupported_output (name ^ ": array elem " ^ k)))
  | _ -> raise (Unsupported_output name)

(* Each request carries a fresh trace_id; the protocol promises every
   reply echoes it, so a reply without it is a failure in its own
   right, not just a missing nicety. *)
let server_trace_seq = ref 0

let run_server tp ~scalars : outcome =
  Mutex.lock server_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock server_mutex) @@ fun () ->
  match acquire_server () with
  | None -> Skip "psc executable not found"
  | Some (ic, oc) -> (
    let src = Psc.Pretty.program_to_string tp.Psc.ast in
    incr server_trace_seq;
    let trace_id = Printf.sprintf "fz%d" !server_trace_seq in
    let req =
      Json.obj
        [ ("id", Json.int 0);
          ("op", Json.str "run");
          ("trace_id", Json.str trace_id);
          ("source", Json.str src);
          ("scalars", Json.obj (List.map (fun (n, v) -> (n, Json.int v)) scalars)) ]
    in
    match
      output_string oc req;
      output_char oc '\n';
      flush oc;
      input_line ic
    with
    | exception (End_of_file | Sys_error _) ->
      stop_server ();
      Trap "server: connection lost"
    | line -> (
      match Json.parse line with
      | exception Json.Parse_error m -> Trap ("server: bad response: " ^ m)
      | resp when Json.member "trace_id" resp <> Some (Json.Str trace_id) ->
        Trap
          (Printf.sprintf "server: reply did not echo trace_id %S" trace_id)
      | resp -> (
        match (Json.member_bool "ok" resp, Json.member "outputs" resp) with
        | Some true, Some (Json.Arr items) -> (
          try Outputs (List.map value_of_json items)
          with Unsupported_output m -> Skip ("server: unsupported output " ^ m))
        | Some true, _ -> Trap "server: response has no outputs"
        | _ -> (
          match Json.member_str "error" resp with
          | Some m -> Trap m
          | None -> Trap ("server: request failed: " ^ line)))))

let run_path ~pool tp ~inputs ~scalars (p : path) : outcome =
  match p with
  | Seq -> interp_outputs (fun () -> Psc.run tp ~inputs)
  | Nowin -> interp_outputs (fun () -> Psc.run ~use_windows:false tp ~inputs)
  | Passes -> interp_outputs (fun () -> Psc.run ~sink:true ~fuse:true ~trim:true tp ~inputs)
  | Steal -> interp_outputs (fun () -> Psc.run ~pool tp ~inputs)
  | Collapse -> interp_outputs (fun () -> Psc.run ~pool ~collapse:true ~trim:true tp ~inputs)
  | Group -> run_group ~pool tp ~inputs
  | Inspector -> run_inspector ~pool tp ~inputs
  | Hyper -> (
    match hyper_project tp with
    | None -> Skip "hyperplane not applicable"
    | Some (tp', name) -> interp_outputs (fun () -> Psc.run ~name ~sink:true tp' ~inputs)
    | exception Psc.Error m -> Trap m)
  | Hyper_par -> (
    match hyper_project tp with
    | None -> Skip "hyperplane not applicable"
    | Some (tp', name) ->
      interp_outputs (fun () ->
          Psc.run ~name ~sink:true ~trim:true ~collapse:true ~pool tp' ~inputs)
    | exception Psc.Error m -> Trap m)
  | Auto ->
    (* The policy table steers chunking / stealing / flattening but must
       never change results: compare bit for bit against the reference.
       Sized to the fuzz pool so decisions actually fork here, whatever
       the host looks like. *)
    interp_outputs (fun () ->
        let table =
          Psc.static_policy ~cores:(Psc.Pool.size pool) tp ~env:scalars
        in
        Psc.run ~pool ~policy:table tp ~inputs)
  | Cc -> run_c tp ~scalars
  | Server -> run_server tp ~scalars

(* ------------------------------------------------------------------ *)

let judge (reference : outcome) (p : path) (o : outcome) : string option =
  match (reference, o) with
  | _, Skip _ -> None
  | Trap _, Trap _ -> None  (* both paths stop on the same defined trap *)
  | Trap m, _ -> Some (Printf.sprintf "%s: reference trapped (%s) but path did not" (path_name p) m)
  | Outputs _, Trap m -> Some (Printf.sprintf "%s: trapped: %s" (path_name p) m)
  | Outputs r, Outputs out -> (
    match compare_outputs r out with
    | None -> None
    | Some m -> Some (Printf.sprintf "%s: %s" (path_name p) m))
  | Outputs r, Checksums sums -> (
    match compare_checksums r sums with
    | None -> None
    | Some m -> Some (Printf.sprintf "%s: %s" (path_name p) m))
  | (Checksums _ | Skip _), _ -> Some (Printf.sprintf "%s: unusable reference" (path_name p))

let check ?(pool_size = 4) ~(paths : path list) tp ~inputs ~scalars : case_result =
  Psc.Pool.with_pool pool_size @@ fun pool ->
  let reference = run_path ~pool tp ~inputs ~scalars Seq in
  let others = List.filter (fun p -> p <> Seq) paths in
  let outcomes =
    List.map (fun p -> (p, run_path ~pool tp ~inputs ~scalars p)) others
  in
  let verdict =
    List.fold_left
      (fun acc (p, o) -> match acc with Some _ -> acc | None -> judge reference p o)
      None outcomes
  in
  { cr_outcomes = (Seq, reference) :: outcomes; cr_verdict = verdict }

(* Run one source text end to end: load, derive inputs, differentiate.
   Loading or scheduling errors are reported as a verdict of their own —
   a generated program must always compile. *)
let check_source ?(pool_size = 4) ~paths ~scalars src : case_result =
  match Psc.load_string src with
  | exception Psc.Error m ->
    { cr_outcomes = []; cr_verdict = Some ("load: " ^ m) }
  | tp -> (
    let em = Psc.default_module tp in
    match Psc.default_inputs em ~scalars with
    | exception Psc.Error m -> { cr_outcomes = []; cr_verdict = Some ("inputs: " ^ m) }
    | inputs -> check ~pool_size ~paths tp ~inputs ~scalars)

let check_spec ?(pool_size = 4) ~paths (spec : Gen.spec) : case_result =
  check_source ~pool_size ~paths ~scalars:(Gen.scalars spec) (Gen.render spec)
