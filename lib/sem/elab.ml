(* Semantic elaboration: the compiler "front end" of paper §3.

   Resolves type declarations, flattens array types, binds the implicit
   index variables of each equation, expands whole-array (slice) equations
   such as [A[1] = InitialA] into fully subscripted form, and type-checks
   every right-hand side.  The result feeds the dependency-graph builder
   and scheduler unchanged. *)

open Ps_lang

exception Error of string * Loc.span

let err loc fmt = Fmt.kstr (fun msg -> raise (Error (msg, loc))) fmt

type data_kind = Input | Output | Local

type data = {
  d_name : string;
  d_kind : data_kind;
  d_ty : Stypes.ty;
  d_loc : Loc.span;
}

type index = { ix_var : string; ix_range : Stypes.subrange }

(* One subscript position of a fully-expanded left-hand side. *)
type lhs_sub =
  | Sub_index of index       (* loops over the dimension's subrange *)
  | Sub_fixed of Ast.expr    (* selects one plane, e.g. A[1] *)

type def = {
  df_data : string;
  df_subs : lhs_sub list;
  df_path : string list;  (* record field path; [] for whole elements *)
}

type eq = {
  q_id : int;
  q_name : string;            (* "eq.1", "eq.2", ... in source order *)
  q_defs : def list;          (* several only for multi-result module calls *)
  q_indices : index list;     (* loopable dimensions, in LHS order *)
  q_rhs : Ast.expr;           (* with slice expansion applied *)
  q_loc : Loc.span;
}

type emodule = {
  em_name : string;
  em_params : data list;
  em_results : data list;
  em_locals : data list;
  em_subranges : (string * Stypes.subrange) list;  (* declared subrange types *)
  em_enums : (string * string list) list;
  em_eqs : eq list;
  em_ast : Ast.pmodule;
}

type eprogram = {
  ep_modules : emodule list;
}

(* ------------------------------------------------------------------ *)

let find_data em name =
  let all = em.em_params @ em.em_results @ em.em_locals in
  List.find_opt (fun d -> String.equal d.d_name name) all

let data_exn em name =
  match find_data em name with
  | Some d -> d
  | None -> invalid_arg ("Elab.data_exn: unknown data " ^ name)

let find_module ep name =
  List.find_opt (fun m -> String.equal m.em_name name) ep.ep_modules

let find_eq em id = List.find_opt (fun q -> q.q_id = id) em.em_eqs

let eq_exn em id =
  match find_eq em id with
  | Some q -> q
  | None -> invalid_arg (Printf.sprintf "Elab.eq_exn: no equation %d" id)

(* ------------------------------------------------------------------ *)
(* Type elaboration *)

type tenv = {
  te_ranges : (string * Stypes.subrange) list ref;
  te_aliases : (string * Stypes.ty) list ref;
  te_enums : (string * string list) list ref;
  te_fresh : int ref;
}

let fresh_range_name tenv base =
  incr tenv.te_fresh;
  Printf.sprintf "%s#%d" base !(tenv.te_fresh)

let lookup_range tenv name = List.assoc_opt name !(tenv.te_ranges)

(* Elaborate a type expression in index (dimension) position: the result
   must be a subrange. *)
let rec elab_dim tenv ~ctx (t : Ast.type_expr) : Stypes.subrange =
  match t.Ast.t with
  | Ast.Tname n -> (
    match lookup_range tenv n with
    | Some sr -> { sr with Stypes.sr_name = n }
    | None -> err t.Ast.t_loc "array dimension %s is not a subrange type" n)
  | Ast.Tsubrange (lo, hi) ->
    { Stypes.sr_name = fresh_range_name tenv ctx; sr_lo = lo; sr_hi = hi }
  | Ast.Tint | Ast.Treal | Ast.Tbool | Ast.Tarray _ | Ast.Trecord _ | Ast.Tenum _ ->
    err t.Ast.t_loc "array dimension must be a subrange"

and elab_type tenv ~ctx (t : Ast.type_expr) : Stypes.ty =
  match t.Ast.t with
  | Ast.Tint -> Stypes.Scalar Stypes.Sint
  | Ast.Treal -> Stypes.Scalar Stypes.Sreal
  | Ast.Tbool -> Stypes.Scalar Stypes.Sbool
  | Ast.Tname n -> (
    match List.assoc_opt n !(tenv.te_aliases) with
    | Some ty -> ty
    | None -> (
      match lookup_range tenv n with
      | Some _ ->
        (* A variable of subrange type holds an int. *)
        Stypes.Scalar Stypes.Sint
      | None -> (
        match List.assoc_opt n !(tenv.te_enums) with
        | Some _ -> Stypes.Scalar (Stypes.Senum n)
        | None -> err t.Ast.t_loc "unknown type %s" n)))
  | Ast.Tsubrange _ -> Stypes.Scalar Stypes.Sint
  | Ast.Tarray (dims, elem) ->
    let dims = List.map (elab_dim tenv ~ctx) dims in
    let elem_ty = elab_type tenv ~ctx elem in
    (* Flatten nested arrays: dimensionality is the total subscript count. *)
    (match elem_ty with
     | Stypes.Array (inner, e) -> Stypes.Array (dims @ inner, e)
     | (Stypes.Scalar _ | Stypes.Record _) as e -> Stypes.Array (dims, e))
  | Ast.Trecord fields ->
    Stypes.Record (List.map (fun (n, ft) -> (n, elab_type tenv ~ctx ft)) fields)
  | Ast.Tenum constructors ->
    let name = fresh_range_name tenv (ctx ^ "$enum") in
    tenv.te_enums := (name, constructors) :: !(tenv.te_enums);
    Stypes.Scalar (Stypes.Senum name)

(* ------------------------------------------------------------------ *)
(* Module signatures, needed before bodies to type-check calls. *)

type signature = { sg_params : Stypes.ty list; sg_results : Stypes.ty list }

(* Builtin scalar functions available in equations. *)
let builtins : (string * (Stypes.ty list -> Loc.span -> Stypes.ty)) list =
  let real = Stypes.Scalar Stypes.Sreal in
  let int_ty = Stypes.Scalar Stypes.Sint in
  let real_fun name args loc =
    match args with
    | [ a ] when Stypes.is_numeric a -> real
    | _ -> err loc "%s expects one numeric argument" name
  in
  let join2 name args loc =
    match args with
    | [ a; b ] when Stypes.is_numeric a && Stypes.is_numeric b ->
      if Stypes.equal_ty a int_ty && Stypes.equal_ty b int_ty then int_ty else real
    | _ -> err loc "%s expects two numeric arguments" name
  in
  [ ("sqrt", real_fun "sqrt"); ("sin", real_fun "sin"); ("cos", real_fun "cos");
    ("exp", real_fun "exp"); ("ln", real_fun "ln");
    ("abs",
     fun args loc ->
       match args with
       | [ a ] when Stypes.is_numeric a -> a
       | _ -> err loc "abs expects one numeric argument");
    ("min", join2 "min"); ("max", join2 "max");
    ("intpart",
     fun args loc ->
       match args with
       | [ a ] when Stypes.is_numeric a -> int_ty
       | _ -> err loc "intpart expects one numeric argument") ]

(* ------------------------------------------------------------------ *)
(* Expression type checking *)

type check_env = {
  ce_module : string;
  ce_datas : (string * Stypes.ty) list;     (* params, results, locals *)
  ce_is_index : string -> bool;             (* bound index variables *)
  ce_enum_ctors : (string * string) list;   (* constructor -> enum type *)
  ce_signatures : (string * signature) list;
}

let numeric_join a b =
  let open Stypes in
  match a, b with
  | Scalar Sint, Scalar Sint -> Scalar Sint
  | (Scalar Sint | Scalar Sreal), (Scalar Sint | Scalar Sreal) -> Scalar Sreal
  | _ -> invalid_arg "numeric_join"

let rec type_of env (e : Ast.expr) : Stypes.ty =
  let open Stypes in
  match e.Ast.e with
  | Ast.Int _ -> Scalar Sint
  | Ast.Real _ -> Scalar Sreal
  | Ast.Bool _ -> Scalar Sbool
  | Ast.Var x when env.ce_is_index x -> Scalar Sint
  | Ast.Var x -> (
    match List.assoc_opt x env.ce_datas with
    | Some ty -> ty
    | None -> (
      match List.assoc_opt x env.ce_enum_ctors with
      | Some enum -> Scalar (Senum enum)
      | None -> err e.Ast.e_loc "unknown identifier %s" x))
  | Ast.Index (base, subs) -> (
    let bty = type_of env base in
    match bty with
    | Array (dims, elem) ->
      let nsubs = List.length subs and ndims = List.length dims in
      if nsubs > ndims then
        err e.Ast.e_loc "too many subscripts: %d for a %d-dimensional array" nsubs
          ndims;
      List.iter
        (fun s ->
          match type_of env s with
          | Scalar Sint -> ()
          | t -> err s.Ast.e_loc "subscript must be an int, found %s" (to_string t))
        subs;
      let rest = List.filteri (fun i _ -> i >= nsubs) dims in
      if rest = [] then elem else Array (rest, elem)
    | t -> err e.Ast.e_loc "subscripted value is not an array (type %s)" (to_string t))
  | Ast.Field (base, f) -> (
    match type_of env base with
    | Record fields -> (
      match List.assoc_opt f fields with
      | Some ty -> ty
      | None -> err e.Ast.e_loc "record has no field %s" f)
    | t -> err e.Ast.e_loc "field access on a non-record (type %s)" (to_string t))
  | Ast.Call (f, args) -> (
    let arg_tys = List.map (type_of env) args in
    match List.assoc_opt f builtins with
    | Some check -> check arg_tys e.Ast.e_loc
    | None -> (
      match List.assoc_opt f env.ce_signatures with
      | Some sg -> (
        if List.length sg.sg_params <> List.length arg_tys then
          err e.Ast.e_loc "call to %s: expected %d arguments, found %d" f
            (List.length sg.sg_params) (List.length arg_tys);
        List.iteri
          (fun i (expected, got) ->
            let compatible =
              equal_ty expected got
              || (is_numeric expected && is_numeric got
                  && equal_ty expected (Scalar Sreal))
            in
            if not compatible then
              err e.Ast.e_loc "call to %s: argument %d has type %s, expected %s" f
                (i + 1) (to_string got) (to_string expected))
          (List.combine sg.sg_params arg_tys);
        match sg.sg_results with
        | [ r ] -> r
        | [] -> err e.Ast.e_loc "module %s returns no results" f
        | _ ->
          err e.Ast.e_loc
            "module %s returns several results; use a multi-variable equation" f)
      | None -> err e.Ast.e_loc "unknown function or module %s" f))
  | Ast.Unop (Ast.Neg, a) -> (
    match type_of env a with
    | (Scalar Sint | Scalar Sreal) as t -> t
    | t -> err e.Ast.e_loc "unary '-' on a non-number (type %s)" (to_string t))
  | Ast.Unop (Ast.Not, a) -> (
    match type_of env a with
    | Scalar Sbool -> Scalar Sbool
    | t -> err e.Ast.e_loc "'not' on a non-boolean (type %s)" (to_string t))
  | Ast.Binop (op, a, b) -> (
    let ta = type_of env a and tb = type_of env b in
    match op with
    | Ast.Add | Ast.Sub | Ast.Mul ->
      if is_numeric ta && is_numeric tb then numeric_join ta tb
      else err e.Ast.e_loc "arithmetic on non-numbers (%s, %s)" (to_string ta) (to_string tb)
    | Ast.Div ->
      if is_numeric ta && is_numeric tb then Scalar Sreal
      else err e.Ast.e_loc "'/' on non-numbers (%s, %s)" (to_string ta) (to_string tb)
    | Ast.Idiv | Ast.Imod ->
      if equal_ty ta (Scalar Sint) && equal_ty tb (Scalar Sint) then Scalar Sint
      else err e.Ast.e_loc "'div'/'mod' require int operands"
    | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
      let ok =
        (is_numeric ta && is_numeric tb)
        || equal_ty ta tb
      in
      if ok then Scalar Sbool
      else
        err e.Ast.e_loc "comparison between incompatible types (%s, %s)"
          (to_string ta) (to_string tb)
    | Ast.And | Ast.Or ->
      if equal_ty ta (Scalar Sbool) && equal_ty tb (Scalar Sbool) then Scalar Sbool
      else err e.Ast.e_loc "boolean connective on non-booleans")
  | Ast.If (c, t, f) -> (
    (match type_of env c with
     | Scalar Sbool -> ()
     | ty -> err c.Ast.e_loc "condition must be boolean, found %s" (to_string ty));
    let tt = type_of env t and tf = type_of env f in
    if equal_ty tt tf then tt
    else if is_numeric tt && is_numeric tf then Scalar Sreal
    else
      err e.Ast.e_loc "branches of 'if' have different types (%s, %s)"
        (to_string tt) (to_string tf))

(* ------------------------------------------------------------------ *)
(* Equation elaboration *)

(* Append subscripts to an array-valued expression, pushing through
   if-expressions (slice expansion of whole-array equations). *)
let rec append_subs (e : Ast.expr) (subs : Ast.expr list) : Ast.expr =
  if subs = [] then e
  else
    match e.Ast.e with
    | Ast.Var _ -> { e with Ast.e = Ast.Index (e, subs) }
    | Ast.Index (b, s) -> { e with Ast.e = Ast.Index (b, s @ subs) }
    | Ast.If (c, t, f) ->
      { e with Ast.e = Ast.If (c, append_subs t subs, append_subs f subs) }
    | Ast.Field _ -> { e with Ast.e = Ast.Index (e, subs) }
    | Ast.Int _ | Ast.Real _ | Ast.Bool _ | Ast.Call _ | Ast.Unop _ | Ast.Binop _ ->
      err e.Ast.e_loc
        "whole-array equation: cannot distribute subscripts into this expression"

(* Can implicit subscripts be pushed into this expression?  Module calls
   (and anything else opaque) cannot be subscripted pointwise: such
   equations stay whole-array assignments. *)
let rec distributable (e : Ast.expr) =
  match e.Ast.e with
  | Ast.Var _ | Ast.Index _ | Ast.Field _ -> true
  | Ast.If (_, t, f) -> distributable t && distributable f
  | Ast.Int _ | Ast.Real _ | Ast.Bool _ | Ast.Call _ | Ast.Unop _ | Ast.Binop _ ->
    false

let elab_equation ~env ~tenv ~datas ~eq_id (eq : Ast.equation) : eq =
  ignore tenv;
  let q_name = Printf.sprintf "eq.%d" (eq_id + 1) in
  let expand_slices = distributable eq.Ast.eq_rhs in
  (* Resolve each LHS. *)
  let resolve_lhs (l : Ast.lhs) =
    let data =
      match List.find_opt (fun d -> String.equal d.d_name l.Ast.l_name) datas with
      | Some d -> d
      | None -> err l.Ast.l_loc "equation defines undeclared variable %s" l.Ast.l_name
    in
    (match data.d_kind with
     | Input -> err l.Ast.l_loc "equation may not redefine input parameter %s" l.Ast.l_name
     | Output | Local -> ());
    let dims = Stypes.dims data.d_ty in
    let ndims = List.length dims in
    if List.length l.Ast.l_subs > ndims then
      err l.Ast.l_loc "too many subscripts on %s (%d for %d dimensions)" l.Ast.l_name
        (List.length l.Ast.l_subs) ndims;
    (* Classify the explicit subscripts. *)
    let explicit =
      List.map2
        (fun (sub : Ast.expr) (_sr : Stypes.subrange) ->
          match sub.Ast.e with
          | Ast.Var x -> (
            match lookup_range { tenv with te_fresh = tenv.te_fresh } x with
            | Some declared ->
              Sub_index { ix_var = x; ix_range = { declared with Stypes.sr_name = x } }
            | None -> Sub_fixed sub)
          | _ -> Sub_fixed sub)
        l.Ast.l_subs
        (List.filteri (fun i _ -> i < List.length l.Ast.l_subs) dims)
    in
    (* Expand remaining dimensions into fresh index variables. *)
    let used = ref (List.filter_map (function Sub_index ix -> Some ix.ix_var | Sub_fixed _ -> None) explicit) in
    let expand (sr : Stypes.subrange) =
      let base = sr.Stypes.sr_name in
      let rec pick candidate n =
        if List.mem candidate !used then pick (Printf.sprintf "%s_%d" base n) (n + 1)
        else candidate
      in
      (* Prefer the subrange's own name, matching how the paper writes the
         implicit loops of eq.1 and eq.2 over I and J. *)
      let name =
        let bare = if String.contains base '#' then "i" ^ string_of_int (List.length !used) else base in
        pick bare 2
      in
      used := name :: !used;
      Sub_index { ix_var = name; ix_range = { sr with Stypes.sr_name = sr.Stypes.sr_name } }
    in
    let implicit =
      if expand_slices then
        List.filteri (fun i _ -> i >= List.length explicit) dims |> List.map expand
      else []
    in
    (data, explicit @ implicit, l.Ast.l_path)
  in
  let resolved = List.map resolve_lhs eq.Ast.eq_lhs in
  (* All LHSs of one equation must agree on their loop indices. *)
  let indices_of subs =
    List.filter_map (function Sub_index ix -> Some ix | Sub_fixed _ -> None) subs
  in
  let q_indices =
    match resolved with
    | [] -> err eq.Ast.eq_loc "equation with no left-hand side"
    | (_, subs0, _) :: rest ->
      let ixs0 = indices_of subs0 in
      List.iter
        (fun (_, subs, _) ->
          let ixs = indices_of subs in
          if
            List.length ixs <> List.length ixs0
            || not
                 (List.for_all2
                    (fun a b -> String.equal a.ix_var b.ix_var)
                    ixs ixs0)
          then
            err eq.Ast.eq_loc
              "all left-hand sides of a multi-result equation must use the same indices")
        rest;
      ixs0
  in
  (* Check for duplicate index variables. *)
  let rec dup = function
    | [] -> None
    | ix :: rest ->
      if List.exists (fun j -> String.equal j.ix_var ix.ix_var) rest then Some ix
      else dup rest
  in
  (match dup q_indices with
   | Some ix ->
     err eq.Ast.eq_loc
       "index variable %s used for two dimensions; declare a synonym subrange for one of them"
       ix.ix_var
   | None -> ());
  (* Slice expansion: push the implicit subscripts into the RHS. *)
  let n_explicit =
    match eq.Ast.eq_lhs with l :: _ -> List.length l.Ast.l_subs | [] -> 0
  in
  let implicit_vars =
    match resolved with
    | (_, subs, _) :: _ ->
      List.filteri (fun i _ -> i >= n_explicit) subs
      |> List.map (function
           | Sub_index ix -> Ast.var_e ix.ix_var
           | Sub_fixed _ -> assert false)
    | [] -> []
  in
  let q_rhs =
    if implicit_vars = [] then eq.Ast.eq_rhs else append_subs eq.Ast.eq_rhs implicit_vars
  in
  (* Type check. *)
  let env =
    { env with
      ce_is_index = (fun x -> List.exists (fun ix -> String.equal ix.ix_var x) q_indices) }
  in
  (* The type of a LHS after its (possibly partial) subscripts and its
     record field path. *)
  let rec path_type ty path =
    match path with
    | [] -> ty
    | f :: rest -> (
      match ty with
      | Stypes.Record fields -> (
        match List.assoc_opt f fields with
        | Some fty -> path_type fty rest
        | None -> err eq.Ast.eq_loc "record has no field %s" f)
      | t ->
        err eq.Ast.eq_loc "field %s selected on a non-record (type %s)" f
          (Stypes.to_string t))
  in
  let lhs_type data subs path =
    let after_subs =
      match data.d_ty with
      | Stypes.Array (dims, el) ->
        let k = List.length subs in
        let rest = List.filteri (fun i _ -> i >= k) dims in
        if rest = [] then el else Stypes.Array (rest, el)
      | t -> t
    in
    if path = [] then after_subs
    else
      match after_subs with
      | Stypes.Array _ ->
        err eq.Ast.eq_loc
          "field definitions require the array to be fully subscripted"
      | t -> path_type t path
  in
  (* Array compatibility for whole-array assignment: rank and element
     type; bounds are checked dynamically (they may be spelled with
     different parameter names across modules). *)
  let compatible lhs_ty rhs_ty =
    Stypes.equal_ty lhs_ty rhs_ty
    || (Stypes.is_numeric lhs_ty && Stypes.is_numeric rhs_ty
        && Stypes.equal_ty lhs_ty (Stypes.Scalar Stypes.Sreal))
    ||
    match lhs_ty, rhs_ty with
    | Stypes.Array (d1, e1), Stypes.Array (d2, e2) ->
      List.length d1 = List.length d2 && Stypes.equal_ty e1 e2
    | _ -> false
  in
  (match resolved with
   | [ (data, subs, path) ] ->
     let lhs_ty = lhs_type data subs path in
     let rhs_ty = type_of env q_rhs in
     if not (compatible lhs_ty rhs_ty) then
       err eq.Ast.eq_loc "equation for %s has type %s but %s was expected"
         data.d_name (Stypes.to_string rhs_ty) (Stypes.to_string lhs_ty)
   | multi -> (
     (* Multi-result equations must be a direct module call. *)
     match q_rhs.Ast.e with
     | Ast.Call (f, args) -> (
       match List.assoc_opt f env.ce_signatures with
       | None -> err q_rhs.Ast.e_loc "multi-result equation must call a module"
       | Some sg ->
         if List.length sg.sg_results <> List.length multi then
           err eq.Ast.eq_loc "module %s returns %d results but %d variables are defined"
             f (List.length sg.sg_results) (List.length multi);
         ignore (List.map (type_of env) args);
         List.iter2
           (fun (data, subs, path) rty ->
             let lhs_ty = lhs_type data subs path in
             if not (compatible lhs_ty rty) then
               err eq.Ast.eq_loc "result %s of %s has type %s, expected %s"
                 data.d_name f (Stypes.to_string rty) (Stypes.to_string lhs_ty))
           multi sg.sg_results)
     | _ ->
       err eq.Ast.eq_loc
         "an equation defining several variables must call a multi-result module"));
  let q_defs =
    List.map
      (fun (data, subs, path) ->
        { df_data = data.d_name; df_subs = subs; df_path = path })
      resolved
  in
  { q_id = eq_id; q_name; q_defs; q_indices; q_rhs; q_loc = eq.Ast.eq_loc }

(* ------------------------------------------------------------------ *)
(* Module and program elaboration *)

(* Process the type-declaration section into a type environment; shared
   between signature extraction and full module elaboration. *)
let process_type_decls tenv (decls : Ast.type_decl list) =
  List.iter
    (fun (td : Ast.type_decl) ->
      List.iter
        (fun name ->
          match td.Ast.td_def.Ast.t with
          | Ast.Tsubrange (lo, hi) ->
            tenv.te_ranges :=
              (name, { Stypes.sr_name = name; sr_lo = lo; sr_hi = hi })
              :: !(tenv.te_ranges)
          | Ast.Tname other when lookup_range tenv other <> None ->
            (* Subrange synonym: same bounds under a new name. *)
            let sr = Option.get (lookup_range tenv other) in
            tenv.te_ranges :=
              (name, { sr with Stypes.sr_name = name }) :: !(tenv.te_ranges)
          | Ast.Tenum constructors ->
            tenv.te_enums := (name, constructors) :: !(tenv.te_enums)
          | _ ->
            let ty = elab_type tenv ~ctx:name td.Ast.td_def in
            tenv.te_aliases := (name, ty) :: !(tenv.te_aliases))
        td.Ast.td_names)
    decls

let elab_module ~signatures (m : Ast.pmodule) : emodule =
  let tenv =
    { te_ranges = ref []; te_aliases = ref []; te_enums = ref []; te_fresh = ref 0 }
  in
  process_type_decls tenv m.Ast.m_types;
  let mk_data kind (p : Ast.param) =
    { d_name = p.Ast.p_name;
      d_kind = kind;
      d_ty = elab_type tenv ~ctx:p.Ast.p_name p.Ast.p_type;
      d_loc = p.Ast.p_loc }
  in
  let em_params = List.map (mk_data Input) m.Ast.m_params in
  let em_results = List.map (mk_data Output) m.Ast.m_results in
  let em_locals =
    List.concat_map
      (fun (vd : Ast.var_decl) ->
        List.map
          (fun name ->
            { d_name = name;
              d_kind = Local;
              d_ty = elab_type tenv ~ctx:name vd.Ast.vd_type;
              d_loc = vd.Ast.vd_loc })
          vd.Ast.vd_names)
      m.Ast.m_vars
  in
  let datas = em_params @ em_results @ em_locals in
  (* Duplicate declarations. *)
  let rec check_dups = function
    | [] -> ()
    | d :: rest ->
      if List.exists (fun d2 -> String.equal d2.d_name d.d_name) rest then
        err d.d_loc "duplicate declaration of %s" d.d_name;
      check_dups rest
  in
  check_dups datas;
  (* Inputs are shaped before any equation runs, so their bounds may
     name only inputs. *)
  List.iter
    (fun d ->
      List.iter
        (fun (sr : Stypes.subrange) ->
          List.iter
            (fun v ->
              if not (List.exists (fun p -> String.equal p.d_name v) em_params)
              then
                err d.d_loc "the bounds of input %s name %s, which is not an input"
                  d.d_name v)
            (Ast.free_vars sr.Stypes.sr_lo @ Ast.free_vars sr.Stypes.sr_hi))
        (Stypes.dims d.d_ty))
    em_params;
  let enum_ctors =
    List.concat_map
      (fun (ename, ctors) -> List.map (fun c -> (c, ename)) ctors)
      !(tenv.te_enums)
  in
  let env =
    { ce_module = m.Ast.m_name;
      ce_datas = List.map (fun d -> (d.d_name, d.d_ty)) datas;
      ce_is_index = (fun _ -> false);
      ce_enum_ctors = enum_ctors;
      ce_signatures = signatures }
  in
  let em_eqs =
    List.mapi (fun i eq -> elab_equation ~env ~tenv ~datas ~eq_id:i eq) m.Ast.m_eqs
  in
  { em_name = m.Ast.m_name;
    em_params;
    em_results;
    em_locals;
    em_subranges = List.rev !(tenv.te_ranges);
    em_enums = !(tenv.te_enums);
    em_eqs;
    em_ast = m }

let signature_of_ast (m : Ast.pmodule) : string * signature =
  (* A light elaboration pass over the header only. *)
  let tenv =
    { te_ranges = ref []; te_aliases = ref []; te_enums = ref []; te_fresh = ref 0 }
  in
  process_type_decls tenv m.Ast.m_types;
  let ty_of (p : Ast.param) = elab_type tenv ~ctx:p.Ast.p_name p.Ast.p_type in
  ( m.Ast.m_name,
    { sg_params = List.map ty_of m.Ast.m_params;
      sg_results = List.map ty_of m.Ast.m_results } )

let elab_program (prog : Ast.program) : eprogram =
  let signatures = List.map signature_of_ast prog in
  let rec check_dup_modules = function
    | [] -> ()
    | (m : Ast.pmodule) :: rest ->
      if List.exists (fun (m2 : Ast.pmodule) -> String.equal m2.Ast.m_name m.Ast.m_name) rest
      then err m.Ast.m_loc "duplicate module %s" m.Ast.m_name;
      check_dup_modules rest
  in
  check_dup_modules prog;
  { ep_modules = List.map (elab_module ~signatures) prog }

(* The type of an expression inside a module, for the evaluator; no
   module signatures are in scope. *)
let type_of_expr em ~is_index expr =
  let env =
    { ce_module = em.em_name;
      ce_datas =
        List.map (fun d -> (d.d_name, d.d_ty)) (em.em_params @ em.em_results @ em.em_locals);
      ce_is_index = is_index;
      ce_enum_ctors =
        List.concat_map (fun (ename, cs) -> List.map (fun c -> (c, ename)) cs) em.em_enums;
      ce_signatures = [] }
  in
  type_of env expr
