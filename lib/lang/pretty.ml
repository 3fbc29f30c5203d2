(* Pretty-printer for PS programs.

   The printer produces valid PS concrete syntax: [parse ∘ print] is the
   identity on ASTs (modulo locations), a property checked by the test
   suite. *)

open Ast

let unop_str = function Neg -> "-" | Not -> "not "

let binop_str = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/"
  | Idiv -> "div" | Imod -> "mod"
  | Eq -> "=" | Ne -> "<>" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="
  | And -> "and" | Or -> "or"

(* Precedence levels, loosest to tightest, mirroring the parser. *)
let prec_of = function
  | Or -> 1
  | And -> 2
  | Eq | Ne | Lt | Le | Gt | Ge -> 3
  | Add | Sub -> 4
  | Mul | Div | Idiv | Imod -> 5

let rec pp_expr ?(prec = 0) ppf e =
  match e.e with
  | Int n -> if n < 0 then Fmt.pf ppf "(%d)" n else Fmt.int ppf n
  | Real f ->
    (* Print with enough digits to round-trip, and always with a point so
       the lexer reads it back as a real. *)
    let s = Printf.sprintf "%.17g" f in
    let s = if String.contains s '.' || String.contains s 'e' then s else s ^ ".0" in
    Fmt.string ppf s
  | Bool b -> Fmt.string ppf (if b then "true" else "false")
  | Var x -> Fmt.string ppf x
  | Index (b, subs) ->
    Fmt.pf ppf "%a[%a]" (pp_expr ~prec:10) b
      (Fmt.list ~sep:(Fmt.any ", ") (pp_expr ~prec:0))
      subs
  | Field (b, f) -> Fmt.pf ppf "%a.%s" (pp_expr ~prec:10) b f
  | Call (f, args) ->
    Fmt.pf ppf "%s(%a)" f (Fmt.list ~sep:(Fmt.any ", ") (pp_expr ~prec:0)) args
  | Unop (op, a) ->
    let body ppf () = Fmt.pf ppf "%s%a" (unop_str op) (pp_expr ~prec:9) a in
    if prec > 6 then Fmt.pf ppf "(%a)" body () else body ppf ()
  | Binop (op, a, b) ->
    let my = prec_of op in
    (* Comparisons are non-associative in the grammar: both operands need
       the tighter level.  Other binary operators are left-associative. *)
    let lhs_prec =
      match op with
      | Eq | Ne | Lt | Le | Gt | Ge -> my + 1
      | Add | Sub | Mul | Div | Idiv | Imod | And | Or -> my
    in
    let body ppf () =
      Fmt.pf ppf "%a %s %a" (pp_expr ~prec:lhs_prec) a (binop_str op)
        (pp_expr ~prec:(my + 1))
        b
    in
    if my < prec then Fmt.pf ppf "(%a)" body () else body ppf ()
  | If (c, t, f) ->
    let body ppf () =
      Fmt.pf ppf "@[<hv>if %a@ then %a@ else %a@]" (pp_expr ~prec:0) c
        (pp_expr ~prec:0) t (pp_expr ~prec:0) f
    in
    if prec > 0 then Fmt.pf ppf "(%a)" body () else body ppf ()

let rec pp_type ppf ty =
  match ty.t with
  | Tint -> Fmt.string ppf "int"
  | Treal -> Fmt.string ppf "real"
  | Tbool -> Fmt.string ppf "bool"
  | Tname n -> Fmt.string ppf n
  | Tsubrange (lo, hi) -> Fmt.pf ppf "%a .. %a" (pp_expr ~prec:4) lo (pp_expr ~prec:4) hi
  | Tarray (dims, elem) ->
    Fmt.pf ppf "array [%a] of %a"
      (Fmt.list ~sep:(Fmt.any ", ") pp_type)
      dims pp_type elem
  | Trecord fields ->
    Fmt.pf ppf "record %a end"
      (Fmt.list ~sep:(Fmt.any "; ") (fun ppf (n, t) -> Fmt.pf ppf "%s : %a" n pp_type t))
      fields
  | Tenum constructors ->
    Fmt.pf ppf "(%a)" (Fmt.list ~sep:(Fmt.any ", ") Fmt.string) constructors

let pp_param ppf p = Fmt.pf ppf "%s : %a" p.p_name pp_type p.p_type

let pp_lhs ppf l =
  (match l.l_subs with
   | [] -> Fmt.string ppf l.l_name
   | subs ->
     Fmt.pf ppf "%s[%a]" l.l_name
       (Fmt.list ~sep:(Fmt.any ", ") (pp_expr ~prec:0))
       subs);
  List.iter (fun f -> Fmt.pf ppf ".%s" f) l.l_path

let pp_equation ppf eq =
  Fmt.pf ppf "@[<hov 2>%a =@ %a;@]"
    (Fmt.list ~sep:(Fmt.any ", ") pp_lhs)
    eq.eq_lhs (pp_expr ~prec:0) eq.eq_rhs

let pp_module ppf m =
  Fmt.pf ppf "@[<v>%s: module (%a):@;<1 2>[%a];@," m.m_name
    (Fmt.list ~sep:(Fmt.any "; ") pp_param)
    m.m_params
    (Fmt.list ~sep:(Fmt.any "; ") pp_param)
    m.m_results;
  if m.m_types <> [] then begin
    Fmt.pf ppf "type@,";
    List.iter
      (fun td ->
        Fmt.pf ppf "  @[%a = %a;@]@,"
          (Fmt.list ~sep:(Fmt.any ", ") Fmt.string)
          td.td_names pp_type td.td_def)
      m.m_types
  end;
  if m.m_vars <> [] then begin
    Fmt.pf ppf "var@,";
    List.iter
      (fun vd ->
        Fmt.pf ppf "  @[%a : %a;@]@,"
          (Fmt.list ~sep:(Fmt.any ", ") Fmt.string)
          vd.vd_names pp_type vd.vd_type)
      m.m_vars
  end;
  Fmt.pf ppf "define@,";
  List.iter (fun eq -> Fmt.pf ppf "  %a@," pp_equation eq) m.m_eqs;
  Fmt.pf ppf "end %s;@]" m.m_name

let pp_program ppf prog =
  Fmt.pf ppf "@[<v>%a@]" (Fmt.list ~sep:(Fmt.any "@,@,") pp_module) prog

let expr_to_string e = Fmt.str "%a" (pp_expr ~prec:0) e

let module_to_string m = Fmt.str "%a" pp_module m

let program_to_string p = Fmt.str "%a" pp_program p
