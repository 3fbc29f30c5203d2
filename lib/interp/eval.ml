(* Reference (tree-walk) evaluator for PS expressions.

   This is the semantic baseline: the closure compiler in [Compile] must
   agree with it (a property checked by the test suite), and it handles
   the cold paths — loop bounds, module-call arguments, whole-array and
   slice values. *)

open Ps_sem
open Value

exception Runtime_error of string

let fail fmt = Fmt.kstr (fun m -> raise (Runtime_error m)) fmt

type ctx = {
  c_em : Elab.emodule;
  c_slab : string -> slab;               (* resolve (and allocate) data *)
  c_index : string -> int option;        (* current loop-index bindings *)
  c_call : string -> value list -> value list;  (* module invocation *)
}

let enum_ordinal ctx name =
  let rec find = function
    | [] -> None
    | (ename, ctors) :: rest -> (
      let rec pos i = function
        | [] -> None
        | c :: cs -> if String.equal c name then Some (ename, i) else pos (i + 1) cs
      in
      match pos 0 ctors with Some r -> Some r | None -> find rest)
  in
  find ctx.c_em.Elab.em_enums

let is_data ctx name = Elab.find_data ctx.c_em name <> None

(* Copy a slice of a slab (first [k] dimensions fixed) into a fresh
   slab.  Used for partial references passed as module arguments. *)
let slice_slab (s : slab) (fixed : int array) : slab =
  let k = Array.length fixed in
  let n = ndims s in
  if k > n then fail "too many subscripts on %s" s.s_name;
  let rest = Array.sub s.s_dims k (n - k) in
  let out =
    make_slab ~name:(s.s_name ^ "[slice]")
      ~elem:
        (match s.s_kind with
         | KReal -> Stypes.Scalar Stypes.Sreal
         | KInt -> Stypes.Scalar Stypes.Sint
         | KBool -> Stypes.Scalar Stypes.Sbool
         | KEnum e -> Stypes.Scalar (Stypes.Senum e))
      ~dims:
        (Array.to_list
           (Array.map (fun di -> (di.di_lo, di.di_extent, di.di_extent)) rest))
  in
  let idx = Array.make n 0 in
  Array.blit fixed 0 idx 0 k;
  let out_idx = Array.make (n - k) 0 in
  let rec fill p =
    if p = n then begin
      Array.blit idx k out_idx 0 (n - k);
      set_scalar out out_idx (get_scalar s idx)
    end
    else
      let di = s.s_dims.(p) in
      for v = di.di_lo to di.di_lo + di.di_extent - 1 do
        idx.(p) <- v;
        fill (p + 1)
      done
  in
  fill k;
  out

let scalar_of_value = function
  | Vscalar s -> s
  | Varray s -> fail "array value %s used as a scalar" s.s_name

(* A comparison [op] read off a three-way compare. *)
let ordered (op : Ps_lang.Ast.binop) c =
  match op with
  | Eq -> c = 0
  | Ne -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | _ -> c >= 0

let rec eval (ctx : ctx) (e : Ps_lang.Ast.expr) : value =
  let open Ps_lang.Ast in
  match e.e with
  | Int n -> Vscalar (Sc_int n)
  | Real f -> Vscalar (Sc_real f)
  | Bool b -> Vscalar (Sc_bool b)
  | Var x -> (
    match ctx.c_index x with
    | Some v -> Vscalar (Sc_int v)
    | None ->
      if is_data ctx x then begin
        let s = ctx.c_slab x in
        if ndims s = 0 then Vscalar (get_scalar s [||]) else Varray s
      end
      else (
        match enum_ordinal ctx x with
        | Some (ename, ord) -> Vscalar (Sc_enum (ename, ord))
        | None -> fail "unbound identifier %s" x))
  | Index (base, subs) -> (
    let bv = eval ctx base in
    let idx = Array.of_list (List.map (eval_int ctx) subs) in
    match bv with
    | Varray s ->
      if Array.length idx = ndims s then begin
        check_bounds s idx;
        Vscalar (get_scalar s idx)
      end
      else Varray (slice_slab s idx)
    | Vscalar _ -> fail "subscript applied to a scalar")
  | Field (base, f) -> (
    match scalar_of_value (eval ctx base) with
    | Sc_record fields -> (
      match List.assoc_opt f fields with
      | Some v -> Vscalar v
      | None -> fail "record has no field %s" f)
    | _ -> fail "field access on a non-record")
  | Call (f, args) -> eval_call ctx e f args
  | Unop (Neg, a) -> (
    match scalar_of_value (eval ctx a) with
    | Sc_int n -> Vscalar (Sc_int (-n))
    | Sc_real x -> Vscalar (Sc_real (-.x))
    | _ -> fail "unary '-' on a non-number")
  | Unop (Not, a) -> Vscalar (Sc_bool (not (eval_bool ctx a)))
  | Binop (op, a, b) -> eval_binop ctx op a b
  | If (c, t, f) -> (
    let taken, other = if eval_bool ctx c then (t, f) else (f, t) in
    match eval ctx taken with
    | Vscalar (Sc_int n) when types_real ctx other -> Vscalar (Sc_real (float_of_int n))
    | v -> v)

(* An [if] with an int and a real branch is real (Elab's rule), as the
   compiled closures and the emitted C compute it: an int from the taken
   branch widens when the other one types as real.  A branch the
   elaborator cannot type on its own, a module call, is left as it is,
   as the compiled boxed path leaves it. *)
and types_real ctx e =
  match Elab.type_of_expr ctx.c_em ~is_index:(fun x -> ctx.c_index x <> None) e with
  | Stypes.Scalar Stypes.Sreal -> true
  | _ -> false
  | exception Elab.Error _ -> false

and eval_binop ctx op a b =
  let open Ps_lang.Ast in
  match op with
  | And -> Vscalar (Sc_bool (eval_bool ctx a && eval_bool ctx b))
  | Or -> Vscalar (Sc_bool (eval_bool ctx a || eval_bool ctx b))
  | Add | Sub | Mul -> (
    let va = scalar_of_value (eval ctx a) and vb = scalar_of_value (eval ctx b) in
    match va, vb with
    | Sc_int x, Sc_int y ->
      Vscalar
        (Sc_int (match op with Add -> x + y | Sub -> x - y | Mul -> x * y | _ -> 0))
    | (Sc_int _ | Sc_real _), (Sc_int _ | Sc_real _) ->
      let x = as_float va and y = as_float vb in
      Vscalar
        (Sc_real
           (match op with Add -> x +. y | Sub -> x -. y | Mul -> x *. y | _ -> 0.))
    | _ -> fail "arithmetic on non-numbers")
  | Div ->
    let x = as_float (scalar_of_value (eval ctx a)) in
    let y = as_float (scalar_of_value (eval ctx b)) in
    Vscalar (Sc_real (x /. y))
  | Idiv ->
    let x = eval_int ctx a and y = eval_int ctx b in
    if y = 0 then fail "division by zero";
    Vscalar (Sc_int (x / y))
  | Imod ->
    let x = eval_int ctx a and y = eval_int ctx b in
    if y = 0 then fail "mod by zero";
    Vscalar (Sc_int (x mod y))
  | Eq | Ne | Lt | Le | Gt | Ge -> (
    let va = scalar_of_value (eval ctx a) and vb = scalar_of_value (eval ctx b) in
    (* Ints against ints as ints, other numbers by IEEE comparison (NaN
       is unordered, unequal even to itself), as the compiled closures
       and the emitted C compare. *)
    let r =
      match va, vb with
      | Sc_int x, Sc_int y -> ordered op (Int.compare x y)
      | (Sc_int _ | Sc_real _), (Sc_int _ | Sc_real _) -> (
        let x = as_float va and y = as_float vb in
        match op with
        | Eq -> x = y
        | Ne -> x <> y
        | Lt -> x < y
        | Le -> x <= y
        | Gt -> x > y
        | _ -> x >= y)
      | Sc_bool x, Sc_bool y -> ordered op (Bool.compare x y)
      | Sc_enum (_, x), Sc_enum (_, y) -> ordered op (Int.compare x y)
      | _ -> fail "incomparable values"
    in
    Vscalar (Sc_bool r))

and eval_call ctx e f args =
  let builtin1 g =
    let x = as_float (scalar_of_value (eval ctx (List.hd args))) in
    Vscalar (Sc_real (g x))
  in
  match f, args with
  | "sqrt", [ _ ] -> builtin1 sqrt
  | "sin", [ _ ] -> builtin1 sin
  | "cos", [ _ ] -> builtin1 cos
  | "exp", [ _ ] -> builtin1 exp
  | "ln", [ _ ] -> builtin1 log
  | "abs", [ a ] -> (
    match scalar_of_value (eval ctx a) with
    | Sc_int n -> Vscalar (Sc_int (abs n))
    | Sc_real x -> Vscalar (Sc_real (abs_float x))
    | _ -> fail "abs on a non-number")
  | "intpart", [ a ] ->
    Vscalar (Sc_int (int_of_float (as_float (scalar_of_value (eval ctx a)))))
  | ("min" | "max"), [ a; b ] -> (
    let va = scalar_of_value (eval ctx a) and vb = scalar_of_value (eval ctx b) in
    match va, vb with
    | Sc_int x, Sc_int y ->
      Vscalar (Sc_int (if String.equal f "min" then min x y else max x y))
    | _ ->
      let x = as_float va and y = as_float vb in
      Vscalar (Sc_real (if String.equal f "min" then min x y else max x y)))
  | _ -> (
    let vargs = List.map (eval ctx) args in
    match ctx.c_call f vargs with
    | [ v ] -> v
    | [] -> fail "module %s returned no results" f
    | _ -> fail "module %s returns several results (at %s)" f
             (Ps_lang.Loc.to_string e.Ps_lang.Ast.e_loc))

and eval_int ctx e =
  match scalar_of_value (eval ctx e) with
  | Sc_int n -> n
  | Sc_real f -> int_of_float f
  | Sc_enum (_, n) -> n
  | _ -> fail "expected an integer"

and eval_bool ctx e =
  match scalar_of_value (eval ctx e) with
  | Sc_bool b -> b
  | _ -> fail "expected a boolean"

and eval_scalar ctx e = scalar_of_value (eval ctx e)
