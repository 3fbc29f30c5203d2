(* Hand-written lexer for the PS surface syntax.

   Comments are Pascal-style [(* ... *)] and nest.  Compiler pragmas of the
   form [(*$...*)] (see Fig. 1 of the paper) are treated as comments. *)

exception Error of string * Loc.span

type t = {
  src : string;
  mutable pos : Loc.pos;
  mutable peeked : (Token.t * Loc.span) option;
}

let create src = { src; pos = Loc.start_pos; peeked = None }

let at_end lx = lx.pos.Loc.offset >= String.length lx.src

let cur lx = lx.src.[lx.pos.Loc.offset]

let looking_at lx s =
  let n = String.length s and off = lx.pos.Loc.offset in
  off + n <= String.length lx.src && String.equal (String.sub lx.src off n) s

let advance lx =
  if not (at_end lx) then lx.pos <- Loc.advance lx.pos (cur lx)

let error lx msg =
  let span = Loc.span lx.pos lx.pos in
  raise (Error (msg, span))

let rec skip_comment lx depth start =
  if at_end lx then
    raise (Error ("unterminated comment", Loc.span start lx.pos))
  else if looking_at lx "*)" then begin
    advance lx; advance lx;
    if depth > 1 then skip_comment lx (depth - 1) start
  end
  else if looking_at lx "(*" then begin
    advance lx; advance lx;
    skip_comment lx (depth + 1) start
  end
  else begin
    advance lx;
    skip_comment lx depth start
  end

let rec skip_ws lx =
  if at_end lx then ()
  else
    match cur lx with
    | ' ' | '\t' | '\r' | '\n' -> advance lx; skip_ws lx
    | '(' when looking_at lx "(*" ->
      let start = lx.pos in
      advance lx; advance lx;
      skip_comment lx 1 start;
      skip_ws lx
    | _ -> ()

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || Char.equal c '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')

let is_digit c = c >= '0' && c <= '9'

let lex_ident lx =
  let start = lx.pos in
  while (not (at_end lx)) && is_ident_char (cur lx) do advance lx done;
  let s = String.sub lx.src start.Loc.offset (lx.pos.Loc.offset - start.Loc.offset) in
  let tok =
    match Token.keyword_of_string s with
    | Some kw -> kw
    | None -> Token.IDENT s
  in
  (tok, Loc.span start lx.pos)

let lex_number lx =
  let start = lx.pos in
  while (not (at_end lx)) && is_digit (cur lx) do advance lx done;
  (* A '.' starts a real literal only when it is not the '..' of a subrange
     and is followed by a digit. *)
  let is_real =
    (not (at_end lx))
    && Char.equal (cur lx) '.'
    && (not (looking_at lx ".."))
    && lx.pos.Loc.offset + 1 < String.length lx.src
    && is_digit lx.src.[lx.pos.Loc.offset + 1]
  in
  if is_real then begin
    advance lx;
    while (not (at_end lx)) && is_digit (cur lx) do advance lx done;
    if (not (at_end lx)) && (Char.equal (cur lx) 'e' || Char.equal (cur lx) 'E')
    then begin
      advance lx;
      if (not (at_end lx)) && (Char.equal (cur lx) '+' || Char.equal (cur lx) '-')
      then advance lx;
      if at_end lx || not (is_digit (cur lx)) then error lx "malformed exponent";
      while (not (at_end lx)) && is_digit (cur lx) do advance lx done
    end;
    let s = String.sub lx.src start.Loc.offset (lx.pos.Loc.offset - start.Loc.offset) in
    (Token.REAL_LIT (float_of_string s), Loc.span start lx.pos)
  end
  else
    let s = String.sub lx.src start.Loc.offset (lx.pos.Loc.offset - start.Loc.offset) in
    (Token.INT_LIT (int_of_string s), Loc.span start lx.pos)

let lex_symbol lx =
  let start = lx.pos in
  let two tok = advance lx; advance lx; (tok, Loc.span start lx.pos) in
  let one tok = advance lx; (tok, Loc.span start lx.pos) in
  match cur lx with
  | '.' when looking_at lx ".." -> two Token.DOTDOT
  | '.' -> one Token.DOT
  | ':' -> one Token.COLON
  | ';' -> one Token.SEMI
  | ',' -> one Token.COMMA
  | '=' -> one Token.EQ
  | '<' when looking_at lx "<=" -> two Token.LE
  | '<' when looking_at lx "<>" -> two Token.NE
  | '<' -> one Token.LT
  | '>' when looking_at lx ">=" -> two Token.GE
  | '>' -> one Token.GT
  | '(' -> one Token.LPAREN
  | ')' -> one Token.RPAREN
  | '[' -> one Token.LBRACKET
  | ']' -> one Token.RBRACKET
  | '+' -> one Token.PLUS
  | '-' -> one Token.MINUS
  | '*' -> one Token.STAR
  | '/' -> one Token.SLASH
  | c -> error lx (Printf.sprintf "unexpected character %C" c)

let lex_one lx =
  skip_ws lx;
  if at_end lx then (Token.EOF, Loc.span lx.pos lx.pos)
  else
    let c = cur lx in
    if is_ident_start c then lex_ident lx
    else if is_digit c then lex_number lx
    else lex_symbol lx

let next lx =
  match lx.peeked with
  | Some tok ->
    lx.peeked <- None;
    tok
  | None -> lex_one lx

let peek lx =
  match lx.peeked with
  | Some tok -> tok
  | None ->
    let tok = lex_one lx in
    lx.peeked <- Some tok;
    tok

type snapshot = { snap_pos : Loc.pos; snap_peeked : (Token.t * Loc.span) option }

let save lx = { snap_pos = lx.pos; snap_peeked = lx.peeked }

let restore lx s =
  lx.pos <- s.snap_pos;
  lx.peeked <- s.snap_peeked

let all_tokens src =
  let lx = create src in
  let rec loop acc =
    match next lx with
    | Token.EOF, _ -> List.rev acc
    | tok, span -> loop ((tok, span) :: acc)
  in
  loop []
