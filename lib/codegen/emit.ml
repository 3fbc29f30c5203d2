(* C code generation (paper §1, §3.4).

   The flowchart drives emission directly: a Subrange descriptor becomes a
   for loop annotated iterative or concurrent (every fork candidate,
   [Policy.index], also gets an OpenMP pragma so the generated code
   actually runs in parallel on a modern compiler); a node descriptor
   becomes an assignment.  Virtual dimensions allocate their window and
   subscript through [% window], exactly as §3.4 prescribes.

   Restrictions of this back end (diagnosed, not silently ignored):
   module calls and record types are not emitted; enumerations become
   #define'd integers. *)

open Ps_sem

exception Unsupported of string

let fail fmt = Fmt.kstr (fun m -> raise (Unsupported m)) fmt

let c_keywords =
  [ "auto"; "break"; "case"; "char"; "const"; "continue"; "default"; "do";
    "double"; "else"; "enum"; "extern"; "float"; "for"; "goto"; "if"; "inline";
    "int"; "long"; "register"; "restrict"; "return"; "short"; "signed";
    "sizeof"; "static"; "struct"; "switch"; "typedef"; "union"; "unsigned";
    "void"; "volatile"; "while"; "main" ]

let c_name n = if List.mem n c_keywords then "ps_" ^ n else n

type ctype = Cdouble | Cint | Cbool

let ctype_of_scalar = function
  | Stypes.Sreal -> Cdouble
  | Stypes.Sint -> Cint
  | Stypes.Sbool -> Cbool
  | Stypes.Senum _ -> Cint

let ctype_of_ty = function
  | Stypes.Scalar s -> ctype_of_scalar s
  | Stypes.Array (_, Stypes.Scalar s) -> ctype_of_scalar s
  | Stypes.Array (_, _) | Stypes.Record _ -> fail "record types are not supported by the C back end"

let ctype_str = function Cdouble -> "double" | Cint -> "int" | Cbool -> "unsigned char"

(* ------------------------------------------------------------------ *)
(* Expression translation *)

type ectx = {
  x_em : Elab.emodule;
  x_indices : string list;  (* variables bound by enclosing loops *)
}

let is_data ctx n = Elab.find_data ctx.x_em n <> None

(* Scalar results are passed as pointers (a by-value parameter would lose
   the write), so both reads and the defining assignment dereference. *)
let scalar_result ctx n =
  List.exists
    (fun (d : Elab.data) ->
      String.equal d.Elab.d_name n && Stypes.dims d.Elab.d_ty = [])
    ctx.x_em.Elab.em_results

let enum_ordinal ctx name =
  List.find_map
    (fun (_, ctors) ->
      let rec pos i = function
        | [] -> None
        | c :: cs -> if String.equal c name then Some i else pos (i + 1) cs
      in
      pos 0 ctors)
    ctx.x_em.Elab.em_enums

(* Scalar type inference mirroring the elaborator, used to decide between
   int and floating C operators. *)
let rec ctype_of_expr ctx (e : Ps_lang.Ast.expr) : ctype =
  let open Ps_lang.Ast in
  match e.e with
  | Int _ -> Cint
  | Real _ -> Cdouble
  | Bool _ -> Cbool
  | Var x ->
    if List.mem x ctx.x_indices then Cint
    else if is_data ctx x then
      (match Elab.find_data ctx.x_em x with
       | Some d -> ctype_of_ty d.Elab.d_ty
       | None -> Cint)
    else Cint (* enum constructor *)
  | Index ({ e = Var x; _ }, _) when is_data ctx x ->
    (match Elab.find_data ctx.x_em x with
     | Some d -> ctype_of_ty d.Elab.d_ty
     | None -> Cint)
  | Index _ | Field _ -> fail "unsupported reference shape in C back end"
  | Call (f, _) -> (
    match f with
    | "sqrt" | "sin" | "cos" | "exp" | "ln" -> Cdouble
    | "intpart" -> Cint
    | "abs" | "min" | "max" -> Cdouble (* conservative *)
    | _ -> fail "module call %s cannot be emitted to C" f)
  | Unop (Neg, a) -> ctype_of_expr ctx a
  | Unop (Not, _) -> Cbool
  | Binop ((Add | Sub | Mul), a, b) -> (
    match ctype_of_expr ctx a, ctype_of_expr ctx b with
    | Cint, Cint -> Cint
    | _ -> Cdouble)
  | Binop (Div, _, _) -> Cdouble
  | Binop ((Idiv | Imod), _, _) -> Cint
  | Binop ((Eq | Ne | Lt | Le | Gt | Ge | And | Or), _, _) -> Cbool
  | If (_, t, f) -> (
    match ctype_of_expr ctx t, ctype_of_expr ctx f with
    | Cint, Cint -> Cint
    | Cbool, Cbool -> Cbool
    | _ -> Cdouble)

let rec emit_expr ctx buf (e : Ps_lang.Ast.expr) =
  let open Ps_lang.Ast in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  match e.e with
  | Int n -> pf "%d" n
  | Real f ->
    let s = Printf.sprintf "%.17g" f in
    let s = if String.contains s '.' || String.contains s 'e' then s else s ^ ".0" in
    pf "%s" s
  | Bool b -> pf "%s" (if b then "1" else "0")
  | Var x ->
    if List.mem x ctx.x_indices then pf "%s" (c_name x)
    else if is_data ctx x then
      if scalar_result ctx x then pf "(*%s)" (c_name x) else pf "%s" (c_name x)
    else (
      match enum_ordinal ctx x with
      | Some ord -> pf "%d" ord
      | None -> fail "unbound identifier %s" x)
  | Index ({ e = Var x; _ }, subs) when is_data ctx x ->
    pf "%s_AT(" (c_name x);
    List.iteri
      (fun i s ->
        if i > 0 then pf ", ";
        emit_expr ctx buf s)
      subs;
    pf ")"
  | Index _ | Field _ -> fail "unsupported reference shape in C back end"
  | Call (f, args) -> (
    let fn =
      match f with
      | "sqrt" -> "sqrt" | "sin" -> "sin" | "cos" -> "cos" | "exp" -> "exp"
      | "ln" -> "log" | "abs" -> "fabs" | "min" -> "PS_MIN" | "max" -> "PS_MAX"
      | "intpart" -> "(int)"
      | _ -> fail "module call %s cannot be emitted to C" f
    in
    pf "%s(" fn;
    List.iteri
      (fun i a ->
        if i > 0 then pf ", ";
        emit_expr ctx buf a)
      args;
    pf ")")
  | Unop (Neg, a) ->
    pf "(-";
    emit_expr ctx buf a;
    pf ")"
  | Unop (Not, a) ->
    pf "(!";
    emit_expr ctx buf a;
    pf ")"
  | Binop ((Idiv | Imod) as op, a, b) ->
    (* Never raw / and %: zero is undefined behavior in C, and the
       helpers pin the rounding to the interpreter's (truncated
       quotient, remainder with the dividend's sign) with a zero trap. *)
    pf "%s(" (match op with Idiv -> "PS_DIV" | _ -> "PS_MOD");
    emit_expr ctx buf a;
    pf ", ";
    emit_expr ctx buf b;
    pf ")"
  | Binop (op, a, b) ->
    let sym =
      match op with
      | Add -> "+" | Sub -> "-" | Mul -> "*"
      | Div -> "/" | Idiv | Imod -> assert false
      | Eq -> "==" | Ne -> "!=" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="
      | And -> "&&" | Or -> "||"
    in
    pf "(";
    (* Real division must not become C integer division. *)
    (if op = Div && ctype_of_expr ctx a = Cint && ctype_of_expr ctx b = Cint then begin
       pf "(double)";
       emit_expr ctx buf a
     end
     else emit_expr ctx buf a);
    pf " %s " sym;
    emit_expr ctx buf b;
    pf ")"
  | If (c, t, f) ->
    pf "(";
    emit_expr ctx buf c;
    pf " ? ";
    emit_expr ctx buf t;
    pf " : ";
    emit_expr ctx buf f;
    pf ")"

(* ------------------------------------------------------------------ *)
(* Module emission *)

type array_layout = {
  al_name : string;
  al_ctype : ctype;
  al_dims : (string * string * int option) list;
      (* per dim: (lo C expr, hi C expr, window) *)
}

let expr_to_c ctx e =
  let buf = Buffer.create 32 in
  emit_expr ctx buf e;
  Buffer.contents buf

let window_of windows name dim =
  List.find_map
    (fun (w : Ps_sched.Schedule.window) ->
      if String.equal w.Ps_sched.Schedule.w_data name && w.Ps_sched.Schedule.w_dim = dim
      then Some w.Ps_sched.Schedule.w_size
      else None)
    windows

let layout_of ctx windows (d : Elab.data) : array_layout option =
  match Stypes.dims d.Elab.d_ty with
  | [] -> None
  | dims ->
    let use_windows = d.Elab.d_kind = Elab.Local in
    Some
      { al_name = c_name d.Elab.d_name;
        al_ctype = ctype_of_ty d.Elab.d_ty;
        al_dims =
          List.mapi
            (fun p (sr : Stypes.subrange) ->
              ( expr_to_c ctx sr.Stypes.sr_lo,
                expr_to_c ctx sr.Stypes.sr_hi,
                if use_windows then window_of windows d.Elab.d_name p else None ))
            dims }

(* Emit the bound/extent/stride constants and the _AT macro for one
   array. *)
let emit_layout buf (al : array_layout) =
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let n = List.length al.al_dims in
  List.iteri
    (fun p (lo, hi, window) ->
      pf "  const int %s_lo%d = %s;\n" al.al_name p lo;
      pf "  const int %s_n%d = (%s) - (%s) + 1;\n" al.al_name p hi lo;
      match window with
      | Some w ->
        pf "  const int %s_w%d = %d;  /* virtual dimension: window of %d planes (sec 3.4) */\n"
          al.al_name p w w
      | None -> pf "  const int %s_w%d = %s_n%d;\n" al.al_name p al.al_name p)
    al.al_dims;
  (* Strides over the allocated (window) sizes. *)
  for p = n - 1 downto 0 do
    if p = n - 1 then pf "  const size_t %s_s%d = 1;\n" al.al_name p
    else
      pf "  const size_t %s_s%d = %s_s%d * (size_t)%s_w%d;\n" al.al_name p
        al.al_name (p + 1) al.al_name (p + 1)
  done;
  pf "  const size_t %s_size = %s_s0 * (size_t)%s_w0;\n" al.al_name al.al_name
    al.al_name;
  (* The subscript macro, mapping virtual dimensions through their
     window. *)
  let params = String.concat ", " (List.init n (fun p -> Printf.sprintf "i%d" p)) in
  let terms =
    String.concat " + "
      (List.mapi
         (fun p (_, _, window) ->
           match window with
           | Some _ ->
             Printf.sprintf "((size_t)PS_WRAP((i%d) - %s_lo%d, %s_w%d)) * %s_s%d" p
               al.al_name p al.al_name p al.al_name p
           | None ->
             Printf.sprintf "((size_t)((i%d) - %s_lo%d)) * %s_s%d" p al.al_name p
               al.al_name p)
         al.al_dims)
  in
  pf "  #define %s_AT(%s) %s[%s]\n" al.al_name params al.al_name terms

(* ------------------------------------------------------------------ *)

(* [forks] holds the fork candidates' loops: each gets the pragma. *)
let rec emit_descriptor em ~forks buf ~indent ~bound
    (d : Ps_sched.Flowchart.descriptor) =
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let pad = String.make indent ' ' in
  match d with
  | Ps_sched.Flowchart.D_data name -> pf "%s/* data %s */\n" pad name
  | Ps_sched.Flowchart.D_eq { er_id; er_aliases } ->
    let q = Elab.eq_exn em er_id in
    let ctx =
      { x_em = em;
        x_indices =
          List.map (fun (ix : Elab.index) -> ix.Elab.ix_var) q.Elab.q_indices
          @ List.map snd er_aliases @ bound }
    in
    (* Substitute aliased index variables by their loop variables. *)
    let subst =
      List.map (fun (v, l) -> (v, Ps_lang.Ast.var_e l)) er_aliases
    in
    let rhs = Ps_lang.Ast.subst_vars subst q.Elab.q_rhs in
    (match q.Elab.q_defs with
     | [ df ] ->
       let name = c_name df.Elab.df_data in
       let subs =
         List.map
           (function
             | Elab.Sub_index ix -> (
               match List.assoc_opt ix.Elab.ix_var er_aliases with
               | Some l -> c_name l
               | None -> c_name ix.Elab.ix_var)
             | Elab.Sub_fixed e -> expr_to_c ctx e)
           df.Elab.df_subs
       in
       if subs = [] then
         let lhs = if scalar_result ctx df.Elab.df_data then "*" ^ name else name in
         pf "%s%s = %s;  /* %s */\n" pad lhs (expr_to_c ctx rhs) q.Elab.q_name
       else
         pf "%s%s_AT(%s) = %s;  /* %s */\n" pad name (String.concat ", " subs)
           (expr_to_c ctx rhs) q.Elab.q_name
     | _ -> fail "multi-result equations cannot be emitted to C")
  | Ps_sched.Flowchart.D_loop l ->
    let v = c_name l.Ps_sched.Flowchart.lp_var in
    let ctx = { x_em = em; x_indices = bound } in
    let par = List.memq l forks in
    let lo = expr_to_c ctx l.Ps_sched.Flowchart.lp_range.Stypes.sr_lo in
    let hi = expr_to_c ctx l.Ps_sched.Flowchart.lp_range.Stypes.sr_hi in
    let opened = ref 1 in
    (match l.Ps_sched.Flowchart.lp_kind with
     | Ps_sched.Flowchart.Parallel ->
       (* Depth of the band headed here (1 = no band): a collapse mark
          licenses an OpenMP collapse clause over the perfect nest. *)
       let bd =
         if l.Ps_sched.Flowchart.lp_collapse then
           List.length (Ps_sched.Collapse.band l)
         else 1
       in
       if par then begin
         if bd > 1 then pf "%s#pragma omp parallel for collapse(%d)\n" pad bd
         else pf "%s#pragma omp parallel for\n" pad
       end;
       pf "%sfor (int %s = %s; %s <= %s; %s++) {  /* DOALL (%s) */\n" pad v
         lo v hi v
         (if bd > 1 then "concurrent, collapsible band head"
          else "concurrent")
     | Ps_sched.Flowchart.Iterative ->
       pf "%sfor (int %s = %s; %s <= %s; %s++) {  /* DO (iterative) */\n" pad v lo
         v hi v
     | Ps_sched.Flowchart.Grouped g ->
       (* Group-partitioned DOALL: the residue classes mod g are
          mutually independent; index order within each class. *)
       let gv = v ^ "_grp" in
       if par then pf "%s#pragma omp parallel for\n" pad;
       pf "%sfor (int %s = 0; %s < %d; %s++) {  /* DOGROUP(%d): independent \
           residue classes */\n"
         pad gv gv g gv g;
       pf "%s  for (int %s = (%s) + %s; %s <= %s; %s += %d) {\n" pad v lo gv v
         hi v g;
       opened := 2
     | Ps_sched.Flowchart.Inspected e ->
       (* Inspector/executor preamble: evaluate the symbolic dependence
          distance, reject a non-positive one at run time, then run the
          distance-many residue classes concurrently. *)
       let gv = v ^ "_grp" in
       let dv = v ^ "_dist" in
       let de = expr_to_c ctx e in
       pf "%s{  /* inspector/executor */\n" pad;
       pf "%s  const int %s = %s;\n" pad dv de;
       pf
         "%s  if (%s < 1) { fprintf(stderr, \"psc: inspector for loop %s: \
          dependence distance %%d is not positive\\n\", %s); exit(2); }\n"
         pad dv v dv;
       if par then pf "%s  #pragma omp parallel for\n" pad;
       pf "%s  for (int %s = 0; %s < %s; %s++) {  /* DOINSPECT(%s) */\n" pad gv
         gv dv gv de;
       pf "%s    for (int %s = (%s) + %s; %s <= %s; %s += %s) {\n" pad v lo gv
         v hi v dv;
       opened := 3);
    let bound' = l.Ps_sched.Flowchart.lp_var :: bound in
    List.iter
      (emit_descriptor em ~forks buf ~indent:(indent + (2 * !opened)) ~bound:bound')
      l.Ps_sched.Flowchart.lp_body;
    for i = !opened - 1 downto 0 do
      pf "%s%s}\n" pad (String.make (2 * i) ' ')
    done
  | Ps_sched.Flowchart.D_solve s ->
    let ctx = { x_em = em; x_indices = bound } in
    let v = c_name s.Ps_sched.Flowchart.sv_var in
    pf "%s{  /* solved subscript (unrotate) */\n" pad;
    pf "%s  const int %s = %s;\n" pad v
      (expr_to_c ctx s.Ps_sched.Flowchart.sv_rhs);
    pf "%s  if (%s >= (%s) && %s <= (%s)) {\n" pad v
      (expr_to_c ctx s.Ps_sched.Flowchart.sv_range.Stypes.sr_lo)
      v
      (expr_to_c ctx s.Ps_sched.Flowchart.sv_range.Stypes.sr_hi);
    let bound' = s.Ps_sched.Flowchart.sv_var :: bound in
    List.iter
      (emit_descriptor em ~forks buf ~indent:(indent + 4) ~bound:bound')
      s.Ps_sched.Flowchart.sv_body;
    pf "%s  }\n%s}\n" pad pad

let emit_module ?(windows = []) (em : Elab.emodule)
    (fc : Ps_sched.Flowchart.t) : string =
  Ps_obs.Trace.with_span "emit" @@ fun () ->
  let buf = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let ctx = { x_em = em; x_indices = [] } in
  pf "/* Generated by psc from PS module %s. */\n" em.Elab.em_name;
  pf "#include <stdlib.h>\n#include <stdio.h>\n#include <math.h>\n\n";
  pf "#define PS_MIN(a, b) ((a) < (b) ? (a) : (b))\n";
  pf "#define PS_MAX(a, b) ((a) > (b) ? (a) : (b))\n";
  pf "/* Integer division with the interpreter's semantics: a zero divisor\n";
  pf "   traps (the raw C operators are undefined there), the quotient\n";
  pf "   truncates toward zero and the remainder takes the dividend's sign\n";
  pf "   (C99 semantics, matching OCaml's / and mod). */\n";
  pf "static inline int PS_DIV(int a, int b) {\n";
  pf "  if (b == 0) { fprintf(stderr, \"ps runtime error: division by zero\\n\"); exit(2); }\n";
  pf "  return a / b;\n}\n";
  pf "static inline int PS_MOD(int a, int b) {\n";
  pf "  if (b == 0) { fprintf(stderr, \"ps runtime error: mod by zero\\n\"); exit(2); }\n";
  pf "  return a %% b;\n}\n";
  pf "/* Euclidean remainder: virtual-dimension subscripts must land inside\n";
  pf "   the window even for negative relative indices (sec 3.4). */\n";
  pf "#define PS_WRAP(i, w) ((((i) %% (w)) + (w)) %% (w))\n\n";
  (* Enumerations. *)
  List.iter
    (fun (ename, ctors) ->
      pf "/* enumeration %s */\n" ename;
      List.iteri (fun i c -> pf "#define %s %d\n" (c_name c) i) ctors)
    em.Elab.em_enums;
  (* Signature: inputs (arrays const), then result out-parameters. *)
  let param_sig (d : Elab.data) =
    let ct = ctype_str (ctype_of_ty d.Elab.d_ty) in
    match Stypes.dims d.Elab.d_ty with
    | [] ->
      if d.Elab.d_kind = Elab.Output then
        Printf.sprintf "%s *%s" ct (c_name d.Elab.d_name)
      else Printf.sprintf "%s %s" ct (c_name d.Elab.d_name)
    | _ ->
      let const = if d.Elab.d_kind = Elab.Input then "const " else "" in
      Printf.sprintf "%s%s *%s" const ct (c_name d.Elab.d_name)
  in
  let params =
    List.map param_sig em.Elab.em_params @ List.map param_sig em.Elab.em_results
  in
  pf "void %s(\n    %s)\n{\n" (c_name em.Elab.em_name) (String.concat ",\n    " params);
  (* Array layouts: inputs, results, locals. *)
  let all = em.Elab.em_params @ em.Elab.em_results @ em.Elab.em_locals in
  let layouts = List.filter_map (layout_of ctx windows) all in
  List.iter (emit_layout buf) layouts;
  (* Scalar locals. *)
  List.iter
    (fun (d : Elab.data) ->
      if Stypes.dims d.Elab.d_ty = [] then
        pf "  %s %s;\n" (ctype_str (ctype_of_ty d.Elab.d_ty)) (c_name d.Elab.d_name))
    em.Elab.em_locals;
  (* Local array allocation. *)
  List.iter
    (fun (d : Elab.data) ->
      match Stypes.dims d.Elab.d_ty with
      | [] -> ()
      | _ ->
        let nm = c_name d.Elab.d_name in
        pf "  %s *%s = (%s *)calloc(%s_size, sizeof(%s));\n"
          (ctype_str (ctype_of_ty d.Elab.d_ty))
          nm
          (ctype_str (ctype_of_ty d.Elab.d_ty))
          nm
          (ctype_str (ctype_of_ty d.Elab.d_ty)))
    em.Elab.em_locals;
  pf "\n";
  let forks =
    List.map (fun c -> c.Ps_sched.Policy.c_loop) (Ps_sched.Policy.index fc)
  in
  List.iter (emit_descriptor em ~forks buf ~indent:2 ~bound:[]) fc;
  pf "\n";
  List.iter
    (fun (d : Elab.data) ->
      match Stypes.dims d.Elab.d_ty with
      | [] -> ()
      | _ -> pf "  free(%s);\n" (c_name d.Elab.d_name))
    em.Elab.em_locals;
  (* The _AT macros are function-scoped conceptually; undef for hygiene. *)
  List.iter (fun al -> pf "  #undef %s_AT\n" al.al_name) layouts;
  pf "}\n";
  Buffer.contents buf

(* A standalone main() that fills inputs deterministically and prints a
   checksum of every result — used to validate the generated C against
   the interpreter. *)
let emit_main ?(windows = []) (em : Elab.emodule)
    (fc : Ps_sched.Flowchart.t) ~(scalars : (string * int) list) : string =
  let kernel = emit_module ~windows em fc in
  let buf = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  Buffer.add_string buf kernel;
  pf "\n#include <stdio.h>\n\n";
  pf "/* Deterministic fill shared with the interpreter harness. */\n";
  pf "static double ps_fill(long i) {\n";
  pf "  unsigned long x = (unsigned long)i * 2654435761u + 12345u;\n";
  pf "  return (double)(x %% 1000u) / 1000.0;\n}\n\n";
  pf "int main(void) {\n";
  (* Scalar inputs. *)
  List.iter
    (fun (d : Elab.data) ->
      match Stypes.dims d.Elab.d_ty with
      | [] ->
        let v =
          match List.assoc_opt d.Elab.d_name scalars with
          | Some v -> v
          | None -> fail "emit_main: no value for scalar input %s" d.Elab.d_name
        in
        pf "  int %s = %d;\n" (c_name d.Elab.d_name) v
      | _ -> ())
    em.Elab.em_params;
  let ctx = { x_em = em; x_indices = [] } in
  (* Array inputs and outputs. *)
  let emit_alloc (d : Elab.data) ~fill =
    match Stypes.dims d.Elab.d_ty with
    | [] -> ()
    | dims ->
      let nm = c_name d.Elab.d_name in
      let exts =
        List.map
          (fun (sr : Stypes.subrange) ->
            Printf.sprintf "((%s) - (%s) + 1)"
              (expr_to_c ctx sr.Stypes.sr_hi)
              (expr_to_c ctx sr.Stypes.sr_lo))
          dims
      in
      pf "  size_t %s_total = (size_t)%s;\n" nm (String.concat " * (size_t)" exts);
      pf "  %s *%s = (%s *)calloc(%s_total, sizeof(%s));\n"
        (ctype_str (ctype_of_ty d.Elab.d_ty)) nm
        (ctype_str (ctype_of_ty d.Elab.d_ty)) nm
        (ctype_str (ctype_of_ty d.Elab.d_ty));
      if fill then begin
        pf "  for (size_t q = 0; q < %s_total; q++) %s[q] = (%s)ps_fill((long)q);\n"
          nm nm (ctype_str (ctype_of_ty d.Elab.d_ty))
      end
  in
  List.iter (emit_alloc ~fill:true) em.Elab.em_params;
  List.iter (emit_alloc ~fill:false) em.Elab.em_results;
  (* Scalar results live in main and are passed by address. *)
  List.iter
    (fun (d : Elab.data) ->
      if Stypes.dims d.Elab.d_ty = [] then
        pf "  %s %s = 0;\n" (ctype_str (ctype_of_ty d.Elab.d_ty)) (c_name d.Elab.d_name))
    em.Elab.em_results;
  (* Call. *)
  let args =
    List.map (fun (d : Elab.data) -> c_name d.Elab.d_name) em.Elab.em_params
    @ List.map
        (fun (d : Elab.data) ->
          let nm = c_name d.Elab.d_name in
          if Stypes.dims d.Elab.d_ty = [] then "&" ^ nm else nm)
        em.Elab.em_results
  in
  pf "  %s(%s);\n" (c_name em.Elab.em_name) (String.concat ", " args);
  (* Checksums. *)
  List.iter
    (fun (d : Elab.data) ->
      let nm = c_name d.Elab.d_name in
      match Stypes.dims d.Elab.d_ty with
      | [] -> pf "  printf(\"%s %%.17g\\n\", (double)%s);\n" d.Elab.d_name nm
      | _ ->
        pf "  { double acc = 0.0; for (size_t q = 0; q < %s_total; q++) acc += (double)%s[q];\n"
          nm nm;
        pf "    printf(\"%s %%.17g\\n\", acc); }\n" d.Elab.d_name)
    em.Elab.em_results;
  pf "  return 0;\n}\n";
  Buffer.contents buf
