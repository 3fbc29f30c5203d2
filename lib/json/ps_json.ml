(* JSON for everything psc reads and writes: one value type and parser,
   one escaper, and writers that build text from already-rendered
   fragments (no intermediate tree).  Strings are escaped one way: the
   two-character forms for '"', '\\', '\n', '\t' and '\r', \u00XX for
   the other control characters, every other byte verbatim.  Malformed
   input of any kind raises [Parse_error], never another exception. *)

type t =
  | Obj of (string * t) list
  | Arr of t list
  | Str of string
  | Num of float
  | Bool of bool
  | Null

exception Parse_error of string

(* ------------------------------------------------------------------ *)
(* Writing *)

(* The escape letter of each byte: '\000' for a byte written verbatim,
   'u' for one written as \u00XX. *)
let escape_letter =
  String.init 256 (fun i ->
      match Char.chr i with
      | ('"' | '\\') as c -> c
      | '\n' -> 'n'
      | '\t' -> 't'
      | '\r' -> 'r'
      | c when c < ' ' -> 'u'
      | _ -> '\000')

(* [s] quoted and escaped onto [b], runs of verbatim bytes copied
   whole. *)
let add_quoted b s =
  Buffer.add_char b '"';
  let run = ref 0 in
  String.iteri
    (fun i c ->
      match String.unsafe_get escape_letter (Char.code c) with
      | '\000' -> ()
      | e ->
        Buffer.add_substring b s !run (i - !run);
        run := i + 1;
        Buffer.add_char b '\\';
        Buffer.add_char b e;
        if e = 'u' then Printf.bprintf b "00%02x" (Char.code c))
    s;
  Buffer.add_substring b s !run (String.length s - !run);
  Buffer.add_char b '"'

let str s =
  let b = Buffer.create (String.length s + (String.length s lsr 4) + 8) in
  add_quoted b s;
  Buffer.contents b

let int = string_of_int

let bool b = if b then "true" else "false"

(* [o item,item,... c] into a buffer sized for the common case. *)
let join o c size add xs =
  let b = Buffer.create (List.fold_left (fun n x -> n + size x + 1) 2 xs) in
  Buffer.add_char b o;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      add b x)
    xs;
  Buffer.add_char b c;
  Buffer.contents b

let arr items = join '[' ']' String.length Buffer.add_string items

let obj fields =
  join '{' '}'
    (fun (k, v) -> String.length k + String.length v + 3)
    (fun b (k, v) ->
      add_quoted b k;
      Buffer.add_char b ':';
      Buffer.add_string b v)
    fields

let opt k render = function Some v -> [ (k, render v) ] | None -> []

(* ------------------------------------------------------------------ *)
(* Reading *)

let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
      incr pos;
      skip_ws ()
    | _ -> ()
  in
  let eat c =
    skip_ws ();
    peek () = c && (incr pos; true)
  in
  let expect c = if not (eat c) then fail "expected %c at offset %d" c !pos in
  let lit w v =
    let l = String.length w in
    if !pos + l > n || String.sub s !pos l <> w then
      fail "bad literal at offset %d" !pos;
    pos := !pos + l;
    v
  in
  let hex4 () =
    let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
    if !pos + 4 > n || not (String.for_all is_hex (String.sub s !pos 4)) then
      fail "bad \\u escape at offset %d" !pos;
    pos := !pos + 4;
    int_of_string ("0x" ^ String.sub s (!pos - 4) 4)
  in
  (* After the "\u": one code point, a surrogate pair read whole. *)
  let code_point () =
    let u = hex4 () in
    let low () =
      if !pos + 2 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u' then begin
        pos := !pos + 2;
        hex4 ()
      end
      else -1
    in
    if u land 0xFC00 = 0xD800 then
      match low () with
      | l when l land 0xFC00 = 0xDC00 ->
        0x10000 + ((u - 0xD800) lsl 10) + (l - 0xDC00)
      | _ -> fail "lone surrogate \\u%04x" u
    else if u land 0xFC00 = 0xDC00 then fail "lone surrogate \\u%04x" u
    else u
  in
  let rec run_end i =
    if i >= n then fail "unterminated string"
    else match s.[i] with '"' | '\\' -> i | _ -> run_end (i + 1)
  in
  (* Runs of plain bytes are copied whole; a string without escapes is
     one [String.sub]. *)
  let string_lit () =
    expect '"';
    let start = !pos in
    let stop = run_end start in
    pos := stop + 1;
    if s.[stop] = '"' then String.sub s start (stop - start)
    else begin
      let b = Buffer.create ((2 * (stop - start)) + 16) in
      Buffer.add_substring b s start (stop - start);
      let rec escape () =
        let c = peek () in
        incr pos;
        (match c with
         | 'n' -> Buffer.add_char b '\n'
         | 't' -> Buffer.add_char b '\t'
         | 'r' -> Buffer.add_char b '\r'
         | 'b' -> Buffer.add_char b '\b'
         | 'f' -> Buffer.add_char b '\012'
         | '"' | '\\' | '/' -> Buffer.add_char b c
         | 'u' -> Buffer.add_utf_8_uchar b (Uchar.of_int (code_point ()))
         | _ -> fail "unsupported escape \\%c" c);
        let start = !pos in
        let stop = run_end start in
        Buffer.add_substring b s start (stop - start);
        pos := stop + 1;
        if s.[stop] = '\\' then escape ()
      in
      escape ();
      Buffer.contents b
    end
  in
  (* The items of an object or array, after its opening bracket. *)
  let seq close item =
    incr pos;
    if eat close then []
    else
      let rec go acc =
        let acc = item () :: acc in
        if eat ',' then go acc
        else begin
          expect close;
          List.rev acc
        end
      in
      go []
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' ->
      Obj
        (seq '}' (fun () ->
             skip_ws ();
             let k = string_lit () in
             expect ':';
             (k, value ())))
    | '[' -> Arr (seq ']' value)
    | '"' -> Str (string_lit ())
    | 't' -> lit "true" (Bool true)
    | 'f' -> lit "false" (Bool false)
    | 'n' -> lit "null" Null
    | _ -> number ()
  and number () =
    let start = !pos in
    while
      !pos < n
      && match s.[!pos] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false
    do
      incr pos
    done;
    if !pos = start then fail "unexpected character at offset %d" !pos;
    let tok = String.sub s start (!pos - start) in
    match float_of_string_opt tok with
    | Some f -> Num f
    | None -> fail "bad number %S at offset %d" tok start
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage at offset %d" !pos;
  v

let member k = function
  | Obj kvs -> List.assoc_opt k kvs
  | _ -> None

let member_str k j = match member k j with Some (Str s) -> Some s | _ -> None

let member_num k j = match member k j with Some (Num f) -> Some f | _ -> None

let member_bool k j = match member k j with Some (Bool b) -> Some b | _ -> None
