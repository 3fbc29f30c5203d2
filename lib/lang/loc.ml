(* Source locations for diagnostics.  A [pos] is a point in the input, a
   [span] is a half-open region between two points. *)

type pos = { line : int; col : int; offset : int }

type span = { start_p : pos; end_p : pos }

let start_pos = { line = 1; col = 1; offset = 0 }

let dummy_pos = { line = 0; col = 0; offset = 0 }

let dummy = { start_p = dummy_pos; end_p = dummy_pos }

let span start_p end_p = { start_p; end_p }

let merge a b =
  let start_p = if a.start_p.offset <= b.start_p.offset then a.start_p else b.start_p in
  let end_p = if a.end_p.offset >= b.end_p.offset then a.end_p else b.end_p in
  { start_p; end_p }

let advance p c =
  if Char.equal c '\n' then { line = p.line + 1; col = 1; offset = p.offset + 1 }
  else { p with col = p.col + 1; offset = p.offset + 1 }

let pp ppf s =
  if s.start_p.line = s.end_p.line then
    Fmt.pf ppf "line %d, characters %d-%d" s.start_p.line s.start_p.col s.end_p.col
  else Fmt.pf ppf "lines %d-%d" s.start_p.line s.end_p.line

let to_string s = Fmt.str "%a" pp s
