(* Seeded generation of well-typed PS modules for differential fuzzing.

   A generated program is kept as a structured [spec] (not text) so the
   shrinker can minimize failing cases at the level of sizes, stencil
   reads and expression trees, re-rendering after every candidate step.

   The grammar deliberately spans the paths the harness differentiates:

   - [Map]   pure DOALL nests over 1-3 dimensions (collapse bands);
   - [Time]  a recurrence over a time axis with 0-2 space axes, reading
             1 or 2 planes back (virtual windows, sec 3.4) and, in the
             seidel variant, the current sweep (iterative space loops,
             hyperplane-eligible, sec 4);
   - [Lcs]   a 2-D recurrence carried by both axes (wavefront shape);
   - [Stride] a 1-D recurrence at constant stride d >= 2 (group-
             partitioned DOGROUP schedules) or parameter stride K
             (inspector/executor DOINSPECT schedules), optionally also
             reading the input at the linear subscript [Rest + Rest].

   Numeric discipline: every int equation is wrapped [mod 1000] and int
   multiplication only combines leaf-sized operands, so values stay far
   from 32-bit C overflow; generated divisors have the form
   [((e mod k) + k+1)], which is always >= 2, so division by zero can
   only be reached by deliberate corpus entries, never by the generator;
   real combines are near-linear with small coefficients, so values stay
   finite over every time horizon the generator can pick. *)

(* ------------------------------------------------------------------ *)
(* Deterministic PRNG (splitmix64): reproducible across runs and OCaml
   versions, independent of [Random]'s global state. *)

module Rng = struct
  type t = { mutable s : int64 }

  let create seed = { s = Int64.of_int seed }

  let next t =
    t.s <- Int64.add t.s 0x9E3779B97F4A7C15L;
    let z = t.s in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
    in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let int t n =
    if n <= 0 then 0
    else Int64.to_int (Int64.rem (Int64.shift_right_logical (next t) 1) (Int64.of_int n))

  let range t lo hi = lo + int t (hi - lo + 1)
  let bool t = Int64.logand (next t) 1L = 1L
  let chance t pct = int t 100 < pct
  let pick t l = List.nth l (int t (List.length l))

  (* An independent stream for case [i] of campaign seed [s]. *)
  let split seed i =
    let t = create ((seed * 1_000_003) + i) in
    ignore (next t);
    t
end

(* ------------------------------------------------------------------ *)
(* Specs *)

type elem = E_real | E_int

type axis = { ax_lo : int; ax_hi_off : int }  (* range: lo .. N + hi_off *)

type read = {
  rd_plane : int;        (* 0 = current sweep (seidel), p>0 = K-p *)
  rd_offs : int array;   (* relative subscript per space axis *)
}

type ex =
  | Lit_i of int
  | Lit_r of float
  | Atom of string                    (* pre-rendered leaf: index var, N, Inp[...] *)
  | Read of int                       (* stencil read, resolved by the renderer *)
  | Bin of string * ex * ex           (* "+" "-" "*" "/" "div" "mod" *)
  | Call1 of string * ex              (* abs, sin, intpart *)
  | Call2 of string * ex * ex         (* min, max *)
  | Neg of ex
  | Ite of string * ex * ex * ex * ex (* (cmp op, lhs, rhs, then, else); cmp operands are int *)

type out_style = Out_slice | Out_identity | Out_xform of ex

type tspec = {
  t_order : int;            (* deepest plane read: 1 or 2 *)
  t_seidel : bool;          (* has current-sweep reads *)
  t_axes : axis list;       (* 0-2 space axes *)
  t_reads : read list;      (* at least one with rd_plane >= 1 *)
  t_base_slice : bool;      (* plane 1 defined as W[1] = Inp (real only) *)
  t_bases : ex list;        (* per-element base exprs for remaining planes *)
  t_rec : ex;               (* interior combine (references reads) *)
  t_out : out_style;
  t_rider : bool;           (* extra scalar result Out2 = W[T, lo...] *)
}

type mspec = { m_axes : axis list; m_e : ex }

type lspec = {
  l_reads : bool array;     (* which of L[I-1,J], L[I,J-1], L[I-1,J-1] *)
  l_base_row : ex;
  l_base_col : ex;
  l_rec : ex;
  l_out_array : bool;       (* Out = L (whole table) vs Out = L[N, N] *)
}

type stride_kind =
  | St_const of int         (* C[Rest - d], constant d >= 2: DOGROUP(d) *)
  | St_param of int         (* C[Rest - K], runtime value of K: DOINSPECT(K) *)

type sspec = {
  st_kind : stride_kind;
  st_double : bool;         (* also read C[Rest - 2d] (constant strides only) *)
  st_wide : bool;           (* the combine reads Inp[Rest + Rest] (linear class) *)
  st_base : ex;
  st_rec : ex;
  st_out_id : bool;         (* Out[Ipos] = C[Ipos] vs whole-array Out = C *)
}

type shape = Map of mspec | Time of tspec | Lcs of lspec | Stride of sspec

type spec = { sp_elem : elem; sp_n : int; sp_t : int; sp_shape : shape }

let axis_names = [| "X"; "Y"; "Z" |]

(* ------------------------------------------------------------------ *)
(* Expression generation *)

type genv = {
  g_ints : string list;   (* int-valued atoms in scope *)
  g_reals : string list;  (* real-valued atoms in scope *)
  g_nreads : int;         (* Read 0 .. g_nreads-1 available *)
  g_relem : elem;         (* element type of reads *)
}

let small_i rng = Rng.range rng (-9) 9

let small_r rng =
  float_of_int (Rng.range rng (-200) 200) /. 100.0

let coeff_r rng =
  (* Recurrence coefficients stay below 1/2 so iterated combines cannot
     blow up over the generated time horizons. *)
  float_of_int (Rng.range rng 5 45) /. 100.0

let rec gen_i rng env depth : ex =
  let leaf () =
    let opts =
      [ `Lit ]
      @ (if env.g_ints <> [] then [ `Atom; `Atom ] else [])
      @ (if env.g_nreads > 0 && env.g_relem = E_int then [ `Read; `Read ] else [])
      @ if env.g_reals <> [] then [ `Intpart ] else []
    in
    match Rng.pick rng opts with
    | `Lit -> Lit_i (small_i rng)
    | `Atom -> Atom (Rng.pick rng env.g_ints)
    | `Read -> Read (Rng.int rng env.g_nreads)
    | `Intpart ->
      Call1
        ( "intpart",
          Bin ("*", Atom (Rng.pick rng env.g_reals), Lit_r (float_of_int (Rng.range rng 2 19))) )
  in
  if depth <= 0 then leaf ()
  else
    match Rng.int rng 10 with
    | 0 | 1 -> Bin ("+", gen_i rng env (depth - 1), gen_i rng env (depth - 1))
    | 2 -> Bin ("-", gen_i rng env (depth - 1), gen_i rng env (depth - 1))
    | 3 ->
      (* Products only combine leaf-sized operands, and are re-bounded
         by mod so downstream arithmetic stays far from C int range. *)
      Bin ("mod", Bin ("*", gen_i rng env 0, gen_i rng env 0), Lit_i 1000)
    | 4 | 5 ->
      let k = Rng.range rng 2 7 in
      let guard = Bin ("+", Bin ("mod", gen_i rng env 0, Lit_i k), Lit_i (k + 1)) in
      Bin ((if Rng.bool rng then "div" else "mod"), gen_i rng env (depth - 1), guard)
    | 6 -> Call2 ((if Rng.bool rng then "min" else "max"), gen_i rng env (depth - 1), gen_i rng env (depth - 1))
    | 7 -> Call1 ("abs", gen_i rng env (depth - 1))
    | 8 -> Neg (gen_i rng env (depth - 1))
    | _ ->
      Ite
        ( Rng.pick rng [ "="; "<>"; "<"; "<="; ">"; ">=" ],
          gen_i rng env 0,
          gen_i rng env 0,
          gen_i rng env (depth - 1),
          gen_i rng env (depth - 1) )

let rec gen_r rng env depth : ex =
  let leaf () =
    let opts =
      [ `Lit ]
      @ (if env.g_reals <> [] then [ `Atom; `Atom ] else [])
      @ (if env.g_nreads > 0 && env.g_relem = E_real then [ `Read; `Read ] else [])
      @ if env.g_ints <> [] then [ `Embed ] else []
    in
    match Rng.pick rng opts with
    | `Lit -> Lit_r (small_r rng)
    | `Atom -> Atom (Rng.pick rng env.g_reals)
    | `Read -> Read (Rng.int rng env.g_nreads)
    | `Embed -> Bin ("*", Atom (Rng.pick rng env.g_ints), Lit_r (coeff_r rng))
  in
  if depth <= 0 then leaf ()
  else
    match Rng.int rng 9 with
    | 0 | 1 -> Bin ("+", gen_r rng env (depth - 1), gen_r rng env (depth - 1))
    | 2 -> Bin ("-", gen_r rng env (depth - 1), gen_r rng env (depth - 1))
    | 3 -> Bin ("*", gen_r rng env (depth - 1), Lit_r (coeff_r rng))
    | 4 -> Bin ("/", gen_r rng env (depth - 1), Lit_r (Rng.pick rng [ 2.0; 4.0; 8.0; -2.0 ]))
    | 5 -> Call2 ((if Rng.bool rng then "min" else "max"), gen_r rng env (depth - 1), gen_r rng env (depth - 1))
    | 6 -> Call1 ("abs", gen_r rng env (depth - 1))
    | 7 ->
      Ite
        ( Rng.pick rng [ "="; "<>"; "<"; "<="; ">"; ">=" ],
          (match env.g_ints with [] -> Lit_i 1 | l -> Atom (Rng.pick rng l)),
          Lit_i (small_i rng),
          gen_r rng env (depth - 1),
          gen_r rng env (depth - 1) )
    | _ -> Neg (gen_r rng env (depth - 1))

let gen_e rng env elem depth =
  match elem with E_int -> gen_i rng env depth | E_real -> gen_r rng env depth

(* A combine that provably references every read, then mixes in a random
   tail so combines differ across cases. *)
let gen_combine rng env elem nreads depth =
  let weighted i =
    match elem with
    | E_real -> Bin ("*", Read i, Lit_r (coeff_r rng))
    | E_int -> Read i
  in
  let core =
    List.fold_left
      (fun acc i -> Bin ((if elem = E_int && Rng.bool rng then "-" else "+"), acc, weighted i))
      (weighted 0)
      (List.init (nreads - 1) (fun i -> i + 1))
  in
  if Rng.chance rng 60 then Bin ("+", core, gen_e rng env elem depth) else core

(* ------------------------------------------------------------------ *)
(* Spec generation *)

let gen_axis rng = { ax_lo = Rng.int rng 2; ax_hi_off = Rng.int rng 2 }

let gen_time rng elem n =
  let sdims = Rng.pick rng [ 0; 1; 1; 1; 2; 2 ] in
  let order = if Rng.chance rng 35 then 2 else 1 in
  let seidel = sdims >= 1 && Rng.chance rng 30 in
  let axes = List.init sdims (fun _ -> gen_axis rng) in
  let t = Rng.range rng (order + 1) 6 in
  let gen_off () = Rng.range rng (-2) 2 in
  let plane_read p =
    { rd_plane = p; rd_offs = Array.init sdims (fun _ -> if sdims = 0 then 0 else gen_off ()) }
  in
  (* At least one read from the deepest plane, so [order] is honest and
     the storage window really needs order+1 planes. *)
  let nplane = Rng.range rng 1 3 in
  let reads =
    plane_read order :: List.init (nplane - 1) (fun _ -> plane_read (Rng.range rng 1 order))
  in
  let seidel_reads =
    if not seidel then []
    else
      List.init (Rng.range rng 1 2) (fun _ ->
          (* Current-sweep reads must be lexicographically earlier:
             non-positive offsets with at least one strictly negative. *)
          let offs = Array.init sdims (fun _ -> -Rng.int rng 2) in
          let k = Rng.int rng sdims in
          offs.(k) <- -Rng.range rng 1 2;
          { rd_plane = 0; rd_offs = offs })
  in
  let reads = reads @ seidel_reads in
  let ints = List.init sdims (fun i -> axis_names.(i)) @ [ "K"; "N" ] in
  let inp_atom =
    if sdims = 0 then Printf.sprintf "Inp[%d]" (Rng.int rng 4)
    else
      Printf.sprintf "Inp[%s]"
        (String.concat ", " (List.init sdims (fun i -> axis_names.(i))))
  in
  let env = { g_ints = ints; g_reals = [ inp_atom ]; g_nreads = List.length reads; g_relem = elem } in
  let benv = { env with g_nreads = 0; g_ints = List.filter (fun v -> v <> "K") ints } in
  let base_slice = elem = E_real && sdims >= 1 && Rng.bool rng in
  let nbases = if base_slice then order - 1 else order in
  let bases = List.init nbases (fun _ -> gen_e rng benv elem 2) in
  let t_rec = gen_combine rng env elem (List.length reads) 2 in
  let out =
    if sdims = 0 then Out_slice
    else
      match Rng.int rng 10 with
      | 0 | 1 | 2 | 3 -> Out_slice
      | 4 | 5 | 6 -> Out_identity
      | _ ->
        let oenv =
          { g_ints = List.filter (fun v -> v <> "K") ints;
            g_reals = [ inp_atom ];
            g_nreads = 1;
            g_relem = elem }
        in
        Out_xform (gen_combine rng oenv elem 1 2)
  in
  { sp_elem = elem;
    sp_n = n;
    sp_t = t;
    sp_shape =
      Time
        { t_order = order;
          t_seidel = seidel;
          t_axes = axes;
          t_reads = reads;
          t_base_slice = base_slice;
          t_bases = bases;
          t_rec;
          t_out = out;
          t_rider = Rng.chance rng 40 } }

let gen_map rng elem n =
  let sdims = Rng.pick rng [ 1; 2; 2; 3 ] in
  let axes = List.init sdims (fun _ -> gen_axis rng) in
  let ints = List.init sdims (fun i -> axis_names.(i)) @ [ "N" ] in
  let inp_atom =
    Printf.sprintf "Inp[%s]" (String.concat ", " (List.init sdims (fun i -> axis_names.(i))))
  in
  let env = { g_ints = ints; g_reals = [ inp_atom ]; g_nreads = 0; g_relem = elem } in
  { sp_elem = elem;
    sp_n = n;
    sp_t = 0;
    sp_shape = Map { m_axes = axes; m_e = gen_e rng env elem 3 } }

let gen_lcs rng elem n =
  let l_reads = Array.make 3 false in
  l_reads.(Rng.int rng 3) <- true;
  Array.iteri (fun i on -> if (not on) && Rng.bool rng then l_reads.(i) <- true) l_reads;
  let nreads = Array.fold_left (fun a b -> if b then a + 1 else a) 0 l_reads in
  let env =
    { g_ints = [ "I"; "J"; "N" ];
      g_reals = [ "Inp[I]"; "Inp[J]" ];
      g_nreads = nreads;
      g_relem = elem }
  in
  let row_env = { env with g_nreads = 0; g_ints = [ "Jz"; "N" ]; g_reals = [ "Inp[Jz]" ] } in
  let col_env = { env with g_nreads = 0; g_ints = [ "I"; "N" ]; g_reals = [ "Inp[I]" ] } in
  { sp_elem = elem;
    sp_n = n;
    sp_t = 0;
    sp_shape =
      Lcs
        { l_reads;
          l_base_row = gen_e rng row_env elem 2;
          l_base_col = gen_e rng col_env elem 2;
          l_rec = gen_combine rng env elem nreads 2;
          l_out_array = Rng.bool rng } }

let gen_stride rng elem =
  (* A wider extent than the other shapes, so every residue class of the
     group partition holds several iterations. *)
  let n = Rng.range rng 7 14 in
  let kind =
    if Rng.chance rng 45 then St_param (Rng.range rng 1 3)
    else St_const (Rng.pick rng [ 2; 2; 3; 4 ])
  in
  let double =
    match kind with
    | St_const d -> (2 * d) + 3 <= n && Rng.chance rng 40
    | St_param _ -> false
  in
  let wide = Rng.chance rng 50 in
  let nreads = if double then 2 else 1 in
  let rec_ints =
    [ "Rest"; "N" ] @ (match kind with St_param _ -> [ "K" ] | St_const _ -> [])
  in
  let rec_reals = "Inp[Rest]" :: (if wide then [ "Inp[Rest + Rest]" ] else []) in
  let renv = { g_ints = rec_ints; g_reals = rec_reals; g_nreads = nreads; g_relem = elem } in
  let benv =
    { g_ints = [ "Init"; "N" ]; g_reals = [ "Inp[Init]" ]; g_nreads = 0; g_relem = elem }
  in
  { sp_elem = elem;
    sp_n = n;
    sp_t = 0;
    sp_shape =
      Stride
        { st_kind = kind;
          st_double = double;
          st_wide = wide;
          st_base = gen_e rng benv elem 2;
          st_rec = gen_combine rng renv elem nreads 2;
          st_out_id = Rng.bool rng } }

let generate rng =
  let elem = if Rng.chance rng 60 then E_real else E_int in
  let n = Rng.range rng 4 8 in
  match Rng.int rng 100 with
  | k when k < 20 -> gen_map rng elem n
  | k when k < 37 -> gen_lcs rng elem n
  | k when k < 55 -> gen_stride rng elem
  | _ -> gen_time rng elem n

(* ------------------------------------------------------------------ *)
(* Rendering to PS source *)

let lit_i n = if n < 0 then Printf.sprintf "(0 - %d)" (-n) else string_of_int n

let lit_r v =
  if v < 0.0 then Printf.sprintf "(0.0 - %.4f)" (-.v) else Printf.sprintf "%.4f" v

let rec render_ex rd (e : ex) : string =
  match e with
  | Lit_i n -> lit_i n
  | Lit_r v -> lit_r v
  | Atom a -> a
  | Read i -> rd i
  | Bin (op, a, b) -> Printf.sprintf "(%s %s %s)" (render_ex rd a) op (render_ex rd b)
  | Call1 (f, a) -> Printf.sprintf "%s(%s)" f (render_ex rd a)
  | Call2 (f, a, b) -> Printf.sprintf "%s(%s, %s)" f (render_ex rd a) (render_ex rd b)
  | Neg a -> Printf.sprintf "(0 - %s)" (render_ex rd a)
  | Ite (op, l, r, t, f) ->
    Printf.sprintf "(if %s %s %s then %s else %s)" (render_ex rd l) op (render_ex rd r)
      (render_ex rd t) (render_ex rd f)

let no_reads _ = invalid_arg "expression references a stencil read out of context"

(* Wrap int equations so recurrence values never approach C int range. *)
let rhs_text elem rd e =
  let t = render_ex rd e in
  match elem with E_int -> Printf.sprintf "((%s) mod 1000)" t | E_real -> t

let elem_str = function E_real -> "real" | E_int -> "int"

(* [N + off] as PS text. *)
let n_plus off =
  if off > 0 then Printf.sprintf "N + %d" off
  else if off = 0 then "N"
  else Printf.sprintf "N - %d" (-off)

(* subscript "X + o" / "X - o" / "X" *)
let sub_off name o =
  if o > 0 then Printf.sprintf "%s + %d" name o
  else if o = 0 then name
  else Printf.sprintf "%s - %d" name (-o)

let render_read axes (r : read) : string =
  let time = sub_off "K" (-r.rd_plane) in
  let space = List.mapi (fun i _ -> sub_off axis_names.(i) r.rd_offs.(i)) axes in
  Printf.sprintf "W[%s]" (String.concat ", " (time :: space))

let render_time (s : spec) (t : tspec) : string =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let elem = elem_str s.sp_elem in
  let sdims = List.length t.t_axes in
  let names = List.mapi (fun i _ -> axis_names.(i)) t.t_axes in
  let axes_s = String.concat ", " names in
  let inp_dims = if sdims = 0 then "D" else axes_s in
  let out_decl =
    if sdims = 0 then Printf.sprintf "Out: %s" elem
    else Printf.sprintf "Out: array[%s] of %s" axes_s elem
  in
  let rider_decl = if t.t_rider then Printf.sprintf "; Out2: %s" elem else "" in
  pf "Fz: module (Inp: array[%s] of real; N: int; T: int):\n  [%s%s];\n" inp_dims out_decl
    rider_decl;
  pf "type\n";
  if sdims = 0 then pf "  D = 0 .. N;\n";
  List.iteri
    (fun i (ax : axis) ->
      pf "  %s = %d .. %s;\n" axis_names.(i) ax.ax_lo (n_plus ax.ax_hi_off))
    t.t_axes;
  pf "  K = %d .. T;\n" (t.t_order + 1);
  pf "var\n";
  if sdims = 0 then pf "  W: array [1 .. T] of %s;\n" elem
  else pf "  W: array [1 .. T] of array[%s] of %s;\n" axes_s elem;
  pf "define\n";
  (* Base planes. *)
  let base_planes = List.init t.t_order (fun p -> p + 1) in
  let bases = ref t.t_bases in
  List.iter
    (fun p ->
      if t.t_base_slice && p = 1 then pf "  W[1] = Inp;\n"
      else begin
        let e = match !bases with e :: rest -> bases := rest; e | [] -> Lit_i 1 in
        if sdims = 0 then pf "  W[%d] = %s;\n" p (rhs_text s.sp_elem no_reads e)
        else pf "  W[%d, %s] = %s;\n" p axes_s (rhs_text s.sp_elem no_reads e)
      end)
    base_planes;
  (* The recurrence, guarded at the boundary of every offset read. *)
  let rd i = render_read t.t_axes (List.nth t.t_reads i) in
  let combine = rhs_text s.sp_elem rd t.t_rec in
  let guard_terms =
    List.concat
      (List.mapi
         (fun i (ax : axis) ->
           let mneg =
             List.fold_left (fun m (r : read) -> max m (-r.rd_offs.(i))) 0 t.t_reads
           in
           let mpos =
             List.fold_left (fun m (r : read) -> max m r.rd_offs.(i)) 0 t.t_reads
           in
           (if mneg > 0 then [ Printf.sprintf "(%s < %d)" axis_names.(i) (ax.ax_lo + mneg) ]
            else [])
           @
           if mpos > 0 then
             [ Printf.sprintf "(%s > %s)" axis_names.(i) (n_plus (ax.ax_hi_off - mpos)) ]
           else [])
         t.t_axes)
  in
  let lhs_subs = String.concat ", " ("K" :: names) in
  (match guard_terms with
   | [] -> pf "  W[%s] = %s;\n" lhs_subs combine
   | terms ->
     let carry =
       Printf.sprintf "W[%s]" (String.concat ", " ("K - 1" :: names))
     in
     pf "  W[%s] = if %s\n    then %s\n    else %s;\n" lhs_subs
       (String.concat " or " terms) carry combine);
  (* Results. *)
  (match t.t_out with
   | Out_slice -> pf "  Out = W[T];\n"
   | Out_identity -> pf "  Out[%s] = W[T, %s];\n" axes_s axes_s
   | Out_xform e ->
     let rd _ = Printf.sprintf "W[T, %s]" axes_s in
     pf "  Out[%s] = %s;\n" axes_s (rhs_text s.sp_elem rd e));
  if t.t_rider then begin
    let los = List.map (fun (ax : axis) -> string_of_int ax.ax_lo) t.t_axes in
    pf "  Out2 = W[%s];\n" (String.concat ", " ("T" :: los))
  end;
  pf "end Fz;\n";
  Buffer.contents b

let render_map (s : spec) (m : mspec) : string =
  let b = Buffer.create 512 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let elem = elem_str s.sp_elem in
  let names = List.mapi (fun i _ -> axis_names.(i)) m.m_axes in
  let axes_s = String.concat ", " names in
  pf "Fz: module (Inp: array[%s] of real; N: int):\n  [Out: array[%s] of %s];\n" axes_s
    axes_s elem;
  pf "type\n";
  List.iteri
    (fun i (ax : axis) ->
      pf "  %s = %d .. %s;\n" axis_names.(i) ax.ax_lo (n_plus ax.ax_hi_off))
    m.m_axes;
  pf "define\n";
  pf "  Out[%s] = %s;\n" axes_s (rhs_text s.sp_elem no_reads m.m_e);
  pf "end Fz;\n";
  Buffer.contents b

let lcs_read_texts = [| "L[I - 1, J]"; "L[I, J - 1]"; "L[I - 1, J - 1]" |]

let render_lcs (s : spec) (l : lspec) : string =
  let b = Buffer.create 512 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let elem = elem_str s.sp_elem in
  (* The whole-table result ranges over two *distinct* subranges: the
     scheduler identifies loop dimensions by subrange name (step 2), so
     Out: array[Jz, Jz] would be ambiguous and unschedulable. *)
  let out_decl =
    if l.l_out_array then Printf.sprintf "Out: array[Iz, Jz] of %s" elem
    else Printf.sprintf "Out: %s" elem
  in
  pf "Fz: module (Inp: array[D] of real; N: int):\n  [%s];\n" out_decl;
  pf "type\n  D = 0 .. N;\n  Iz = 0 .. N;\n  Jz = 0 .. N;\n  I = 1 .. N;\n  J = 1 .. N;\n";
  pf "var\n  L: array [0 .. N, 0 .. N] of %s;\n" elem;
  pf "define\n";
  pf "  L[0, Jz] = %s;\n" (rhs_text s.sp_elem no_reads l.l_base_row);
  pf "  L[I, 0] = %s;\n" (rhs_text s.sp_elem no_reads l.l_base_col);
  let enabled =
    List.filteri (fun i _ -> l.l_reads.(i)) [ 0; 1; 2 ] |> Array.of_list
  in
  let rd i = lcs_read_texts.(enabled.(i)) in
  pf "  L[I, J] = %s;\n" (rhs_text s.sp_elem rd l.l_rec);
  if l.l_out_array then pf "  Out = L;\n" else pf "  Out = L[N, N];\n";
  pf "end Fz;\n";
  Buffer.contents b

(* The input ranges over Wide = 1 .. N + N so the optional strided read
   Inp[Rest + Rest] stays in bounds for every Rest <= N. *)
let render_stride (s : spec) (st : sspec) : string =
  let b = Buffer.create 512 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let elem = elem_str s.sp_elem in
  let params = match st.st_kind with St_param _ -> "; K: int" | St_const _ -> "" in
  pf "Fz: module (Inp: array[Wide] of real; N: int%s):\n  [Out: array[Ipos] of %s];\n"
    params elem;
  pf "type\n  Wide = 1 .. N + N;\n  Ipos = 1 .. N;\n";
  (match st.st_kind with
   | St_const d ->
     let depth = if st.st_double then 2 * d else d in
     pf "  Init = 1 .. %d;\n  Rest = %d .. N;\n" depth (depth + 1)
   | St_param _ -> pf "  Init = 1 .. K;\n  Rest = K + 1 .. N;\n");
  pf "var\n  C: array [Ipos] of %s;\n" elem;
  pf "define\n";
  pf "  C[Init] = %s;\n" (rhs_text s.sp_elem no_reads st.st_base);
  let rd i =
    match st.st_kind with
    | St_param _ -> "C[Rest - K]"
    | St_const d -> Printf.sprintf "C[Rest - %d]" (if i = 0 then d else 2 * d)
  in
  pf "  C[Rest] = %s;\n" (rhs_text s.sp_elem rd st.st_rec);
  if st.st_out_id then pf "  Out[Ipos] = C[Ipos];\n" else pf "  Out = C;\n";
  pf "end Fz;\n";
  Buffer.contents b

let render (s : spec) : string =
  match s.sp_shape with
  | Time t -> render_time s t
  | Map m -> render_map s m
  | Lcs l -> render_lcs s l
  | Stride st -> render_stride s st

(* ------------------------------------------------------------------ *)
(* Inputs *)

let scalars (s : spec) : (string * int) list =
  match s.sp_shape with
  | Time _ -> [ ("N", s.sp_n); ("T", s.sp_t) ]
  | Map _ | Lcs _ -> [ ("N", s.sp_n) ]
  | Stride { st_kind = St_param k; _ } -> [ ("N", s.sp_n); ("K", k) ]
  | Stride _ -> [ ("N", s.sp_n) ]

let describe (s : spec) : string =
  let shape =
    match s.sp_shape with
    | Map m -> Printf.sprintf "map/%dd" (List.length m.m_axes)
    | Lcs _ -> "lcs"
    | Stride st ->
      let tail =
        (if st.st_double then " x2" else "") ^ if st.st_wide then " wide" else ""
      in
      (match st.st_kind with
       | St_const d -> Printf.sprintf "stride/%d%s" d tail
       | St_param k -> Printf.sprintf "stride/K=%d%s" k tail)
    | Time t ->
      Printf.sprintf "time/%dd order=%d%s reads=%d" (List.length t.t_axes) t.t_order
        (if t.t_seidel then " seidel" else "")
        (List.length t.t_reads)
  in
  Printf.sprintf "%s %s N=%d%s" shape
    (elem_str s.sp_elem)
    s.sp_n
    (match s.sp_shape with Time _ -> Printf.sprintf " T=%d" s.sp_t | _ -> "")

(* ------------------------------------------------------------------ *)
(* Shrinking: one-step candidates, most aggressive first.  Every
   candidate is a complete well-formed spec; the shrinker keeps a
   candidate only if it still fails the differential property. *)

let rec shrink_ex ~int_ctx (e : ex) : ex list =
  let lit = if int_ctx then Lit_i 1 else Lit_r 1.0 in
  let sub rebuild ctx child = List.map rebuild (shrink_ex ~int_ctx:ctx child) in
  match e with
  | Lit_i _ | Lit_r _ | Atom _ | Read _ -> []
  | Bin (("+" | "-") as op, a, b) ->
    [ a; b; lit ]
    @ sub (fun a' -> Bin (op, a', b)) int_ctx a
    @ sub (fun b' -> Bin (op, a, b')) int_ctx b
  | Bin (("div" | "mod") as op, a, b) ->
    (* Keep the divisor's nonzero guard intact; shrink the dividend. *)
    [ a; lit ] @ sub (fun a' -> Bin (op, a', b)) int_ctx a
  | Bin ("*", a, b) -> [ lit ] @ sub (fun a' -> Bin ("*", a', b)) int_ctx a @ sub (fun b' -> Bin ("*", a, b')) int_ctx b
  | Bin ("/", a, b) -> [ a; lit ] @ sub (fun a' -> Bin ("/", a', b)) int_ctx a
  | Bin (op, a, b) -> [ lit ] @ sub (fun a' -> Bin (op, a', b)) int_ctx a @ sub (fun b' -> Bin (op, a, b')) int_ctx b
  | Call1 ("intpart", _) -> [ lit ]
  | Call1 (f, a) -> [ a; lit ] @ sub (fun a' -> Call1 (f, a')) int_ctx a
  | Call2 (f, a, b) ->
    [ a; b; lit ]
    @ sub (fun a' -> Call2 (f, a', b)) int_ctx a
    @ sub (fun b' -> Call2 (f, a, b')) int_ctx b
  | Neg a -> [ a; lit ] @ sub (fun a' -> Neg a') int_ctx a
  | Ite (op, l, r, t, f) ->
    [ t; f; lit ]
    @ sub (fun t' -> Ite (op, l, r, t', f)) int_ctx t
    @ sub (fun f' -> Ite (op, l, r, t, f')) int_ctx f
    @ List.map (fun l' -> Ite (op, l', r, t, f)) (shrink_ex ~int_ctx:true l)
    @ List.map (fun r' -> Ite (op, l, r', t, f)) (shrink_ex ~int_ctx:true r)

let has_deep_read (reads : read list) = List.exists (fun r -> r.rd_plane >= 1) reads

let shrink (s : spec) : spec list =
  let int_ctx = s.sp_elem = E_int in
  (* The stride shape's extent cannot drop below the recurrence depth:
     Init = 1 .. depth must stay inside Ipos = 1 .. N. *)
  let min_n =
    match s.sp_shape with
    | Stride st ->
      max 4
        (1
        +
        match st.st_kind with
        | St_const d -> if st.st_double then 2 * d else d
        | St_param k -> k)
    | _ -> 4
  in
  let sized =
    (if s.sp_n > min_n then [ { s with sp_n = min_n }; { s with sp_n = s.sp_n - 1 } ]
     else [])
    @
    match s.sp_shape with
    | Time t when s.sp_t > t.t_order + 1 ->
      [ { s with sp_t = t.t_order + 1 }; { s with sp_t = s.sp_t - 1 } ]
    | _ -> []
  in
  let shaped =
    match s.sp_shape with
    | Map m ->
      (if List.length m.m_axes > 1 then
         (* Dropping to one axis invalidates atoms that mention the dead
            axis variables (Y, Z, Inp[X, Y, ...]); retarget them all to
            the surviving axis so the candidate stays well-typed. *)
         let rec retarget e =
           match e with
           | Atom ("Y" | "Z") -> Atom "X"
           | Atom a when String.length a >= 4 && String.sub a 0 4 = "Inp[" ->
             Atom "Inp[X]"
           | Bin (op, a, b) -> Bin (op, retarget a, retarget b)
           | Call1 (f, a) -> Call1 (f, retarget a)
           | Call2 (f, a, b) -> Call2 (f, retarget a, retarget b)
           | Neg a -> Neg (retarget a)
           | Ite (op, l, r, th, el) ->
             Ite (op, retarget l, retarget r, retarget th, retarget el)
           | Lit_i _ | Lit_r _ | Atom _ | Read _ -> e
         in
         [ { s with
             sp_shape =
               Map { m_axes = [ List.hd m.m_axes ]; m_e = retarget m.m_e } } ]
       else [])
      @ (if List.exists (fun (ax : axis) -> ax.ax_lo <> 0 || ax.ax_hi_off <> 0) m.m_axes then
           [ { s with
               sp_shape =
                 Map { m with m_axes = List.map (fun _ -> { ax_lo = 0; ax_hi_off = 0 }) m.m_axes } } ]
         else [])
      @ List.map
          (fun e -> { s with sp_shape = Map { m with m_e = e } })
          (shrink_ex ~int_ctx m.m_e)
    | Lcs l ->
      (if l.l_out_array then [ { s with sp_shape = Lcs { l with l_out_array = false } } ]
       else [])
      @ List.filter_map
          (fun i ->
            if l.l_reads.(i) && Array.fold_left (fun a b -> if b then a + 1 else a) 0 l.l_reads > 1
            then begin
              let reads = Array.copy l.l_reads in
              reads.(i) <- false;
              (* Renumber: the rec expr indexes enabled reads, so clamp. *)
              let nleft = Array.fold_left (fun a b -> if b then a + 1 else a) 0 reads in
              let rec clamp e =
                match e with
                | Read k -> Read (k mod nleft)
                | Bin (op, a, b) -> Bin (op, clamp a, clamp b)
                | Call1 (f, a) -> Call1 (f, clamp a)
                | Call2 (f, a, b) -> Call2 (f, clamp a, clamp b)
                | Neg a -> Neg (clamp a)
                | Ite (op, x, y, t, f) -> Ite (op, clamp x, clamp y, clamp t, clamp f)
                | e -> e
              in
              Some { s with sp_shape = Lcs { l with l_reads = reads; l_rec = clamp l.l_rec } }
            end
            else None)
          [ 0; 1; 2 ]
      @ List.map (fun e -> { s with sp_shape = Lcs { l with l_rec = e } }) (shrink_ex ~int_ctx l.l_rec)
      @ List.map
          (fun e -> { s with sp_shape = Lcs { l with l_base_row = e } })
          (shrink_ex ~int_ctx l.l_base_row)
      @ List.map
          (fun e -> { s with sp_shape = Lcs { l with l_base_col = e } })
          (shrink_ex ~int_ctx l.l_base_col)
    | Stride st ->
      let rec map_atoms f e =
        match e with
        | Atom a -> Atom (f a)
        | Bin (op, a, b) -> Bin (op, map_atoms f a, map_atoms f b)
        | Call1 (g, a) -> Call1 (g, map_atoms f a)
        | Call2 (g, a, b) -> Call2 (g, map_atoms f a, map_atoms f b)
        | Neg a -> Neg (map_atoms f a)
        | Ite (op, l, r, th, el) ->
          Ite (op, map_atoms f l, map_atoms f r, map_atoms f th, map_atoms f el)
        | Lit_i _ | Lit_r _ | Read _ -> e
      in
      let rec first_read e =
        match e with
        | Read _ -> Read 0
        | Bin (op, a, b) -> Bin (op, first_read a, first_read b)
        | Call1 (g, a) -> Call1 (g, first_read a)
        | Call2 (g, a, b) -> Call2 (g, first_read a, first_read b)
        | Neg a -> Neg (first_read a)
        | Ite (op, l, r, th, el) ->
          Ite (op, first_read l, first_read r, first_read th, first_read el)
        | e -> e
      in
      let to_const =
        match st.st_kind with
        | St_param _ ->
          (* K leaves the signature, so retarget its atoms. *)
          let fix = map_atoms (fun a -> if a = "K" then "N" else a) in
          [ { s with
              sp_shape =
                Stride
                  { st with
                    st_kind = St_const 2;
                    st_base = fix st.st_base;
                    st_rec = fix st.st_rec } } ]
        | St_const _ -> []
      in
      let drop_double =
        if st.st_double then
          [ { s with
              sp_shape =
                Stride { st with st_double = false; st_rec = first_read st.st_rec } } ]
        else []
      in
      let drop_wide =
        if st.st_wide then
          let fix =
            map_atoms (fun a -> if a = "Inp[Rest + Rest]" then "Inp[Rest]" else a)
          in
          [ { s with sp_shape = Stride { st with st_wide = false; st_rec = fix st.st_rec } } ]
        else []
      in
      let simpler_out =
        if st.st_out_id then [ { s with sp_shape = Stride { st with st_out_id = false } } ]
        else []
      in
      to_const @ drop_double @ drop_wide @ simpler_out
      @ List.map
          (fun e -> { s with sp_shape = Stride { st with st_rec = e } })
          (shrink_ex ~int_ctx st.st_rec)
      @ List.map
          (fun e -> { s with sp_shape = Stride { st with st_base = e } })
          (shrink_ex ~int_ctx st.st_base)
    | Time t ->
      let nreads = List.length t.t_reads in
      let clamp_reads reads e =
        let n = List.length reads in
        let rec clamp = function
          | Read k -> Read (k mod n)
          | Bin (op, a, b) -> Bin (op, clamp a, clamp b)
          | Call1 (f, a) -> Call1 (f, clamp a)
          | Call2 (f, a, b) -> Call2 (f, clamp a, clamp b)
          | Neg a -> Neg (clamp a)
          | Ite (op, x, y, a, b) -> Ite (op, clamp x, clamp y, clamp a, clamp b)
          | e -> e
        in
        clamp e
      in
      let drop_rider =
        if t.t_rider then [ { s with sp_shape = Time { t with t_rider = false } } ] else []
      in
      let simplify_out =
        match t.t_out with
        | Out_slice -> []
        | _ -> [ { s with sp_shape = Time { t with t_out = Out_slice } } ]
      in
      let drop_seidel =
        if t.t_seidel then
          let reads = List.filter (fun r -> r.rd_plane >= 1) t.t_reads in
          [ { s with
              sp_shape =
                Time
                  { t with
                    t_seidel = false;
                    t_reads = reads;
                    t_rec = clamp_reads reads t.t_rec } } ]
        else []
      in
      (* Drop reads one at a time, keeping at least one plane read. *)
      let drop_reads =
        if nreads <= 1 then []
        else
          List.filter_map Fun.id
            (List.mapi
               (fun i _ ->
                 let reads = List.filteri (fun j _ -> j <> i) t.t_reads in
                 if has_deep_read reads then
                   Some
                     { s with
                       sp_shape =
                         Time { t with t_reads = reads; t_rec = clamp_reads reads t.t_rec } }
                 else None)
               t.t_reads)
      in
      (* Zero each plane read's offsets (drops the boundary guard term). *)
      let zero_offsets =
        List.concat
          (List.mapi
             (fun i (r : read) ->
               if r.rd_plane >= 1 && Array.exists (fun o -> o <> 0) r.rd_offs then
                 [ { s with
                     sp_shape =
                       Time
                         { t with
                           t_reads =
                             List.mapi
                               (fun j r' ->
                                 if j = i then
                                   { r' with rd_offs = Array.map (fun _ -> 0) r'.rd_offs }
                                 else r')
                               t.t_reads } } ]
               else [])
             t.t_reads)
      in
      let simplify_rec =
        List.map
          (fun e -> { s with sp_shape = Time { t with t_rec = e } })
          (shrink_ex ~int_ctx t.t_rec)
      in
      let simplify_bases =
        List.concat
          (List.mapi
             (fun i e ->
               List.map
                 (fun e' ->
                   { s with
                     sp_shape =
                       Time
                         { t with
                           t_bases = List.mapi (fun j b -> if i = j then e' else b) t.t_bases } })
                 (shrink_ex ~int_ctx e))
             t.t_bases)
      in
      let simplify_xform =
        match t.t_out with
        | Out_xform e ->
          List.map
            (fun e' -> { s with sp_shape = Time { t with t_out = Out_xform e' } })
            (shrink_ex ~int_ctx e)
        | _ -> []
      in
      drop_rider @ simplify_out @ drop_seidel @ drop_reads @ zero_offsets @ simplify_rec
      @ simplify_bases @ simplify_xform
  in
  sized @ shaped
