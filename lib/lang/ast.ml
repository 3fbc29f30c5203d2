(* Abstract syntax of PS programs.

   A PS program is a list of modules.  A module has typed input parameters
   and results, optional type and variable declaration sections, and a
   [define] section of order-free single-assignment equations (paper §2). *)

type ident = string

type unop = Neg | Not

type binop =
  | Add | Sub | Mul | Div        (* real or int arithmetic *)
  | Idiv | Imod                  (* 'div' and 'mod' *)
  | Eq | Ne | Lt | Le | Gt | Ge  (* comparisons *)
  | And | Or                     (* boolean connectives *)

type expr = { e : expr_node; e_loc : Loc.span }

and expr_node =
  | Int of int
  | Real of float
  | Bool of bool
  | Var of ident
  | Index of expr * expr list    (* a[e1, ..., en]; may be a partial (slice) reference *)
  | Field of expr * ident        (* r.f *)
  | Call of ident * expr list    (* module or builtin application *)
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | If of expr * expr * expr     (* if-expression, both branches mandatory *)

type type_expr = { t : type_node; t_loc : Loc.span }

and type_node =
  | Tint
  | Treal
  | Tbool
  | Tname of ident                          (* reference to a declared type *)
  | Tsubrange of expr * expr                (* lo .. hi *)
  | Tarray of type_expr list * type_expr    (* array [d1, ..., dn] of t *)
  | Trecord of (ident * type_expr) list     (* record f1 : t1; ... end *)
  | Tenum of ident list                     (* (c1, ..., cn) *)

type param = { p_name : ident; p_type : type_expr; p_loc : Loc.span }

type type_decl = { td_names : ident list; td_def : type_expr; td_loc : Loc.span }

type var_decl = { vd_names : ident list; vd_type : type_expr; vd_loc : Loc.span }

(* Left-hand side of an equation: a variable possibly restricted to a slice
   by explicit subscripts.  A subscript is either an index variable (which
   implicitly ranges over the corresponding dimension's subrange) or a
   constant expression selecting one plane, as in [A[1] = InitialA]. *)
type lhs = {
  l_name : ident;
  l_subs : expr list;
  l_path : ident list;  (* record field path, e.g. s.x -> ["x"] *)
  l_loc : Loc.span;
}

type equation = {
  eq_lhs : lhs list;  (* one element normally; several for multi-result calls *)
  eq_rhs : expr;
  eq_loc : Loc.span;
}

type pmodule = {
  m_name : ident;
  m_params : param list;
  m_results : param list;
  m_types : type_decl list;
  m_vars : var_decl list;
  m_eqs : equation list;
  m_loc : Loc.span;
}

type program = pmodule list

(* Constructors that default the location; used by synthesized code
   (hyperplane transform, slice expansion). *)

let mk ?(loc = Loc.dummy) e = { e; e_loc = loc }

let mk_t ?(loc = Loc.dummy) t = { t; t_loc = loc }

let int_e n = mk (Int n)

let var_e x = mk (Var x)

let rec add_offset e n =
  (* [e + n] with constant folding of the common [v + c] shapes, so that
     synthesized subscripts stay in the 'I - constant' class. *)
  if n = 0 then e
  else
    match e.e with
    | Int m -> int_e (m + n)
    | Binop (Add, a, { e = Int m; _ }) -> add_offset a (m + n)
    | Binop (Sub, a, { e = Int m; _ }) -> add_offset a (n - m)
    | _ ->
      if n > 0 then mk (Binop (Add, e, int_e n))
      else mk (Binop (Sub, e, int_e (-n)))

(* Structural equality that ignores locations: used to compare bound
   expressions (e.g. to recognize a subscript equal to the upper bound of
   its subrange) and in tests. *)
let rec equal_expr a b =
  match a.e, b.e with
  | Int x, Int y -> x = y
  | Real x, Real y -> Float.equal x y
  | Bool x, Bool y -> Bool.equal x y
  | Var x, Var y -> String.equal x y
  | Index (e1, s1), Index (e2, s2) ->
    equal_expr e1 e2 && equal_exprs s1 s2
  | Field (e1, f1), Field (e2, f2) -> equal_expr e1 e2 && String.equal f1 f2
  | Call (f1, a1), Call (f2, a2) -> String.equal f1 f2 && equal_exprs a1 a2
  | Unop (o1, e1), Unop (o2, e2) -> o1 = o2 && equal_expr e1 e2
  | Binop (o1, l1, r1), Binop (o2, l2, r2) ->
    o1 = o2 && equal_expr l1 l2 && equal_expr r1 r2
  | If (c1, t1, f1), If (c2, t2, f2) ->
    equal_expr c1 c2 && equal_expr t1 t2 && equal_expr f1 f2
  | ( Int _ | Real _ | Bool _ | Var _ | Index _ | Field _ | Call _ | Unop _
    | Binop _ | If _ ), _ -> false

and equal_exprs a b =
  List.length a = List.length b && List.for_all2 equal_expr a b

(* Free variables of an expression (no binders exist inside PS expressions). *)
let free_vars e =
  let rec go acc e =
    match e.e with
    | Int _ | Real _ | Bool _ -> acc
    | Var x -> x :: acc
    | Index (b, subs) -> List.fold_left go (go acc b) subs
    | Field (b, _) -> go acc b
    | Call (_, args) -> List.fold_left go acc args
    | Unop (_, a) -> go acc a
    | Binop (_, a, b) -> go (go acc a) b
    | If (c, t, f) -> go (go (go acc c) t) f
  in
  List.sort_uniq String.compare (go [] e)

(* Capture-free simultaneous substitution of variables by expressions.
   PS expressions have no binders, so plain replacement is safe. *)
let rec subst_vars map e =
  let s = subst_vars map in
  let node =
    match e.e with
    | Int _ | Real _ | Bool _ -> e.e
    | Var x -> (
      match List.assoc_opt x map with Some e' -> e'.e | None -> e.e)
    | Index (b, subs) -> Index (s b, List.map s subs)
    | Field (b, f) -> Field (s b, f)
    | Call (f, args) -> Call (f, List.map s args)
    | Unop (o, a) -> Unop (o, s a)
    | Binop (o, a, b) -> Binop (o, s a, s b)
    | If (c, t, f) -> If (s c, s t, s f)
  in
  { e with e = node }
