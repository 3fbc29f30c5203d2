(* Equation-notation front end.

   The paper's stated ultimate goal (§1): "a translator of equations in
   the form of (1), perhaps as TeX or Postscript files, to modules in
   this language".  This module implements a textual equation notation
   with TeX-style subscripts and translates it to a PS module:

     relaxation(InitialA[i,j], M, maxK) -> newA[i,j]
     where i, j = 0 .. M+1; k = 2 .. maxK
     A_{1,i,j}   = InitialA_{i,j}
     A_{k,i,j}   = if i = 0 or j = 0 or i = M+1 or j = M+1
                   then A_{k-1,i,j}
                   else (A_{k-1,i,j-1} + A_{k-1,i-1,j}
                       + A_{k-1,i,j+1} + A_{k-1,i+1,j}) / 4
     newA_{i,j}  = A_{maxK,i,j}

   Translation rules:
   - the `where` clause declares the index ranges (PS subrange types);
   - a parameter or result written `X[i,j]` is an array whose dimensions
     are the ranges of the named indices;
   - every name defined by an equation that is not a result becomes a
     local array; its extent at each position is the convex hull of the
     ranges and constants used there across its definitions (so A above
     gets `1 .. maxK` from the constant 1 and the range 2 .. maxK);
   - scalar parameters that appear in a range bound are `int`, all other
     scalars and every array element are `real`;
   - `X_{e1,...,en}` becomes the PS reference `X[e1, ..., en]`.

   The result re-enters the ordinary pipeline (elaborate, schedule,
   transform, run, emit). *)

open Ps_lang

exception Error of string * Loc.span

let err loc fmt = Fmt.kstr (fun m -> raise (Error (m, loc))) fmt

(* ------------------------------------------------------------------ *)
(* Reading.  The notation is PS text with two additions, and [rewrite]
   turns them into PS without moving a character: each [X_{e, ...}]
   becomes [X [e, ...]] and each [#] comment is blanked.  The PS lexer
   and expression grammar then read everything, with exact spans; this
   module parses only the document structure around the expressions. *)

let rewrite src =
  let b = Bytes.of_string src in
  let n = Bytes.length b in
  (* [depth] counts the [_{] still open, so a '}' closes one only. *)
  let rec go i depth =
    if i < n then
      match Bytes.get b i with
      | '#' ->
        let eol = Option.value (String.index_from_opt src i '\n') ~default:n in
        Bytes.fill b i (eol - i) ' ';
        go eol depth
      | '_' when i + 1 < n && Bytes.get b (i + 1) = '{' ->
        Bytes.blit_string " [" 0 b i 2;
        go (i + 2) (depth + 1)
      | '}' when depth > 0 ->
        Bytes.set b i ']';
        go (i + 1) (depth - 1)
      | _ -> go (i + 1) depth
  in
  go 0 0;
  Bytes.to_string b

type range = { r_names : (string * Loc.span) list; r_lo : Ast.expr; r_hi : Ast.expr }

type io = { io_name : string; io_loc : Loc.span; io_subs : (string * Loc.span) list }

type document = {
  doc_name : string * Loc.span;
  doc_inputs : io list;
  doc_outputs : io list;
  doc_ranges : range list;
  doc_eqns : Ast.equation list;
}

(* [item (sep item)*] *)
let rec sep_list p sep item =
  let x = item p in
  if Parser.accept p sep then x :: sep_list p sep item else [ x ]

let parse_io p : io =
  let io_name, io_loc = Parser.expect_ident p in
  let io_subs =
    if Parser.accept p Token.LBRACKET then begin
      let subs = sep_list p Token.COMMA Parser.expect_ident in
      ignore (Parser.expect p Token.RBRACKET);
      subs
    end
    else []
  in
  { io_name; io_loc; io_subs }

(* PS has no '->': it lexes as '-' then '>', which must touch. *)
let expect_arrow p =
  let tok, span = Parser.next p in
  match tok, Parser.next p with
  | Token.MINUS, (Token.GT, gt) when gt.Loc.start_p.offset = span.Loc.end_p.offset -> ()
  | _ -> err span "expected '->'"

let parse_range p =
  let r_names = sep_list p Token.COMMA Parser.expect_ident in
  ignore (Parser.expect p Token.EQ);
  let r_lo = Parser.parse_expr p in
  ignore (Parser.expect p Token.DOTDOT);
  let r_hi = Parser.parse_expr p in
  { r_names; r_lo; r_hi }

let parse_equation p : Ast.equation =
  let l_name, start = Parser.expect_ident p in
  let l_subs, l_loc =
    if Parser.accept p Token.LBRACKET then begin
      let subs = Parser.parse_expr_list p in
      (subs, Loc.merge start (Parser.expect p Token.RBRACKET))
    end
    else ([], start)
  in
  ignore (Parser.expect p Token.EQ);
  let eq_rhs = Parser.parse_expr p in
  { eq_lhs = [ { l_name; l_subs; l_path = []; l_loc } ];
    eq_rhs;
    eq_loc = Loc.merge start eq_rhs.e_loc }

let parse_document src : document =
  let p = Parser.create (rewrite src) in
  let doc_name = Parser.expect_ident p in
  ignore (Parser.expect p Token.LPAREN);
  let doc_inputs =
    if Token.equal (fst (Parser.peek p)) Token.RPAREN then []
    else sep_list p Token.COMMA parse_io
  in
  ignore (Parser.expect p Token.RPAREN);
  expect_arrow p;
  let doc_outputs = sep_list p Token.COMMA parse_io in
  let doc_ranges =
    match Parser.peek p with
    | Token.IDENT w, _ when String.lowercase_ascii w = "where" ->
      ignore (Parser.next p);
      sep_list p Token.SEMI parse_range
    | _ -> []
  in
  let rec eqns acc =
    match Parser.peek p with
    | Token.EOF, _ -> List.rev acc
    | _ -> eqns (parse_equation p :: acc)
  in
  { doc_name; doc_inputs; doc_outputs; doc_ranges; doc_eqns = eqns [] }

(* ------------------------------------------------------------------ *)
(* Translation to a PS module *)

let range_of doc v =
  List.find_opt (fun r -> List.mem_assoc v r.r_names) doc.doc_ranges

(* Convex hull of the lows/highs appearing at one position of a local
   array.  Linear comparison decides constant differences outright;
   symbolic cases (1 vs maxK) are ordered with the where-clause
   non-emptiness facts (lo <= hi for every declared range). *)
let hull ~facts loc (cands : (Ast.expr * Ast.expr) list) : Ast.expr * Ast.expr =
  let lin e =
    match Ps_sem.Linexpr.of_expr e with
    | Some l -> l
    | None -> err loc "array bound %s is not linear" (Pretty.expr_to_string e)
  in
  let pick keep a b =
    match Ps_sem.Linexpr.diff_const (lin a) (lin b) with
    | Some d -> if keep d then a else b
    | None ->
      (* keep (a - b): does a win?  Try to certify either order. *)
      let a_minus_b = Ps_sem.Linexpr.sub (lin a) (lin b) in
      let b_minus_a = Ps_sem.Linexpr.sub (lin b) (lin a) in
      if Ps_sem.Linexpr.prove_nonneg ~assumptions:facts a_minus_b then
        if keep 1 then a else b
      else if Ps_sem.Linexpr.prove_nonneg ~assumptions:facts b_minus_a then
        if keep (-1) then a else b
      else
        err loc "cannot order the bounds %s and %s" (Pretty.expr_to_string a)
          (Pretty.expr_to_string b)
  in
  match cands with
  | [] -> err loc "empty dimension"
  | (lo0, hi0) :: rest ->
    List.fold_left
      (fun (lo, hi) (lo', hi') ->
        (pick (fun d -> d <= 0) lo lo', pick (fun d -> d >= 0) hi hi'))
      (lo0, hi0) rest

let to_module (doc : document) : Ast.pmodule =
  (* Non-emptiness facts of the declared ranges: hi - lo >= 0. *)
  let facts =
    List.filter_map
      (fun r ->
        match
          Ps_sem.Linexpr.of_expr r.r_lo, Ps_sem.Linexpr.of_expr r.r_hi
        with
        | Some lo, Some hi -> Some (Ps_sem.Linexpr.sub hi lo)
        | _ -> None)
      doc.doc_ranges
  in
  let is_output n = List.exists (fun o -> String.equal o.io_name n) doc.doc_outputs in
  let is_input n = List.exists (fun i -> String.equal i.io_name n) doc.doc_inputs in
  (* Scalars used in range bounds are ints. *)
  let bound_vars =
    List.concat_map
      (fun r -> Ast.free_vars r.r_lo @ Ast.free_vars r.r_hi)
      doc.doc_ranges
    |> List.sort_uniq String.compare
  in
  let array_type subs =
    Ast.mk_t
      (Ast.Tarray
         ( List.map
             (fun (v, loc) ->
               match range_of doc v with
               | Some _ -> Ast.mk_t (Ast.Tname v)
               | None -> err loc "index %s has no range in the where clause" v)
             subs,
           Ast.mk_t Ast.Treal ))
  in
  let m_params =
    List.map
      (fun io ->
        let p_type =
          if io.io_subs = [] then
            if List.mem io.io_name bound_vars then Ast.mk_t Ast.Tint
            else Ast.mk_t Ast.Treal
          else array_type io.io_subs
        in
        { Ast.p_name = io.io_name; p_type; p_loc = io.io_loc })
      doc.doc_inputs
  in
  let m_results =
    List.map
      (fun io ->
        let p_type =
          if io.io_subs = [] then Ast.mk_t Ast.Treal else array_type io.io_subs
        in
        { Ast.p_name = io.io_name; p_type; p_loc = io.io_loc })
      doc.doc_outputs
  in
  (* Subrange type declarations from the where clause. *)
  let m_types =
    List.map
      (fun r ->
        { Ast.td_names = List.map fst r.r_names;
          td_def = Ast.mk_t (Ast.Tsubrange (r.r_lo, r.r_hi));
          td_loc = snd (List.hd r.r_names) })
      doc.doc_ranges
  in
  (* Locals: defined names that are not outputs. *)
  let lhs (e : Ast.equation) = List.hd e.eq_lhs in
  let defined =
    List.map (fun e -> (lhs e).l_name) doc.doc_eqns |> List.sort_uniq String.compare
  in
  let locals = List.filter (fun n -> (not (is_output n)) && not (is_input n)) defined in
  let m_vars =
    List.map
      (fun name ->
        let defs = List.filter (fun e -> String.equal (lhs e).l_name name) doc.doc_eqns in
        let first = List.hd defs in
        let arity = List.length (lhs first).l_subs in
        List.iter
          (fun (d : Ast.equation) ->
            if List.length (lhs d).l_subs <> arity then
              err d.eq_loc "inconsistent arity for %s" name)
          defs;
        let dim p =
          let bounds d =
            let sub = List.nth (lhs d).l_subs p in
            match sub.Ast.e with
            | Ast.Var v when range_of doc v <> None ->
              let r = Option.get (range_of doc v) in
              (r.r_lo, r.r_hi)
            | _ -> (sub, sub) (* constant plane *)
          in
          let lo, hi = hull ~facts first.eq_loc (List.map bounds defs) in
          Ast.mk_t (Ast.Tsubrange (lo, hi))
        in
        let vd_type =
          if arity = 0 then Ast.mk_t Ast.Treal
          else Ast.mk_t (Ast.Tarray (List.init arity dim, Ast.mk_t Ast.Treal))
        in
        { Ast.vd_names = [ name ]; vd_type; vd_loc = first.eq_loc })
      locals
  in
  { Ast.m_name = fst doc.doc_name;
    m_params;
    m_results;
    m_types;
    m_vars;
    m_eqs = doc.doc_eqns;
    m_loc = snd doc.doc_name }

let translate src : Ast.pmodule =
  let doc =
    try parse_document src with
    | Lexer.Error (m, span) | Parser.Error (m, span) -> raise (Error (m, span))
  in
  to_module doc
