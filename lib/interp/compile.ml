(* Closure compiler for equation right-hand sides.

   Equations execute once per point of a (possibly large) iteration
   space, so the inner loop must not walk the AST.  Expressions are
   compiled bottom-up into closures over a [frame] — a flat [int array]
   holding the values of the enclosing loop variables — with the scalar
   type resolved at compile time.  The closures are few and fat, because
   an indirect call and a boxed float result cost more than the
   arithmetic they wrap:

   - Affine lowering.  An int subexpression that [Linexpr.of_expr] reads
     as affine, over loop variables and int input scalars, compiles to
     one closure; the inputs fold to their values, which are seeded
     before any component compiles.
   - An array reference whose subscripts are all affine compiles to one
     offset closure, specialised by rank, with lower bounds, strides and
     constants captured.  A windowed dimension maps through a plane
     table, built once per slab for an equation, so the hot path does no
     division.
   - Reads are typed nodes ([CFRead], [CIRead]) that a parent reads
     inline instead of calling a closure that boxes.  A real arithmetic
     operation, [min]/[max], sum chain or [if] is a node too ([CFNode])
     over inline operands, which a store evaluates in place, so the real
     it computes is never boxed.  An [if] that compares two operands
     does the comparison itself.
   - Superinstructions: a left-deep [+] chain of real reads, optionally
     divided or multiplied by a constant, and an [and]/[or] chain of
     comparisons between affine ints each become one closure.
     [compile_store], the one store compiler for real and int slabs,
     fuses an equation's store with its [if] nodes, and a real one's
     with its chain nodes.
   - Rows: the same walk builds the row form of the equation that an
     innermost loop runs ("Rows" below).  A row is cut where an affine
     guard test compares differently, and each segment decides its
     guards once and checks its leaf's references at its two ends.  A
     real [+] chain of reads, scaled or not, then runs as a tight loop
     (a copy or a 4-point stencil with each read's array, base and step
     in locals); any other leaf runs [compile]'s own nodes with each
     reference in its row form, read in place as [a.(fr.(base) + v *
     step)].  A segment whose check fails, and a leaf the lowering
     refuses, run the checked per-point closure.

   Every node evaluates its operands left to right, as [Eval] does, so a
   read that traps raises the same [Value.Bounds] message; no float
   operation is reassociated.  Run sequentially at the benchmark's sizes,
   fig6, h3 and lcs allocate 0.050, 0.065 and 0.033 minor words per
   evaluation, set-up included, and a real [if] leaf over products
   0.045; test_exec's "allocation" cases pin 0.1 for each.

   Module inputs and already-computed scalar locals are read from their
   store slabs at compile time or run time as appropriate; anything
   exotic (records, module calls, slices) falls back to the tree-walk
   evaluator through the [boxed] case.  The test suite checks
   closure-compiled results against [Eval] on random expressions. *)

open Ps_sem
open Value
module Ast = Ps_lang.Ast

type frame = int array

type cctx = {
  k_em : Elab.emodule;
  k_slab : string -> slab;          (* resolve/allocate a data slab *)
  k_slot : string -> int option;    (* loop variable -> frame slot *)
  k_call : string -> value list -> value list;
}

exception Cannot_compile of string

let fail fmt = Fmt.kstr (fun m -> raise (Cannot_compile m)) fmt

(* An evaluation context whose index lookups read the current frame; used
   for the boxed fallback path. *)
let eval_ctx ctx (fr : frame) : Eval.ctx =
  { Eval.c_em = ctx.k_em;
    c_slab = ctx.k_slab;
    c_index =
      (fun v ->
        match ctx.k_slot v with Some s -> Some fr.(s) | None -> None);
    c_call = ctx.k_call }

(* ------------------------------------------------------------------ *)
(* Affine forms *)

(* [a_const + Σ a_coeffs.(i) · fr.(a_slots.(i))], int input scalars
   already folded into the constant.  Int arithmetic wraps modulo 2^63,
   a ring, so the folded form equals the source tree's value bit for
   bit, overflow included. *)
type affine = { a_const : int; a_slots : int array; a_coeffs : int array }

let int_input ctx x =
  match Elab.find_data ctx.k_em x with
  | Some { Elab.d_kind = Elab.Input; d_ty = Stypes.Scalar Stypes.Sint; _ } -> (
    match (ctx.k_slab x).s_data with PInt a -> Some a.(0) | _ -> None)
  | _ -> None

(* Every name of [e] must be int-valued, not only those left in its
   linear form: [a - a] cancels to 0 for a real [a], yet is the real
   0.0 (or NaN). *)
let affine_of ctx (e : Ast.expr) : affine option =
  let int_name x = ctx.k_slot x <> None || int_input ctx x <> None in
  match Linexpr.of_expr e with
  | Some lin when List.for_all int_name (Ast.free_vars e) ->
    let rec go const terms = function
      | [] ->
        let terms = List.filter (fun (_, k) -> k <> 0) (List.rev terms) in
        Some
          { a_const = const;
            a_slots = Array.of_list (List.map fst terms);
            a_coeffs = Array.of_list (List.map snd terms) }
      | (x, k) :: rest -> (
        match ctx.k_slot x with
        | Some s ->
          (* Two names (an index and its alias) may share a slot. *)
          let terms =
            match List.assoc_opt s terms with
            | Some k' -> (s, k + k') :: List.remove_assoc s terms
            | None -> (s, k) :: terms
          in
          go const terms rest
        | None -> (
          match int_input ctx x with
          | Some v -> go (const + (k * v)) terms rest
          | None -> None))
    in
    go lin.Linexpr.const [] lin.Linexpr.terms
  | _ -> None

let eval_affine a (fr : frame) =
  let acc = ref a.a_const in
  for i = 0 to Array.length a.a_slots - 1 do
    acc :=
      !acc
      + (Array.unsafe_get a.a_coeffs i * Array.unsafe_get fr (Array.unsafe_get a.a_slots i))
  done;
  !acc

(* [eval_affine] without the loop for the common short forms. *)
let[@inline] affine_value a fr =
  let k = a.a_coeffs in
  match a.a_slots with
  | [||] -> a.a_const
  | [| s |] -> (Array.unsafe_get k 0 * Array.unsafe_get fr s) + a.a_const
  | [| s0; s1 |] ->
    (Array.unsafe_get k 0 * Array.unsafe_get fr s0)
    + (Array.unsafe_get k 1 * Array.unsafe_get fr s1)
    + a.a_const
  | [| s0; s1; s2 |] ->
    (Array.unsafe_get k 0 * Array.unsafe_get fr s0)
    + (Array.unsafe_get k 1 * Array.unsafe_get fr s1)
    + (Array.unsafe_get k 2 * Array.unsafe_get fr s2)
    + a.a_const
  | _ -> eval_affine a fr

let affine_fn a : frame -> int =
  match a.a_slots with
  | [||] ->
    let c = a.a_const in
    fun _ -> c
  | _ -> fun fr -> affine_value a fr

(* A form of at most one term as [(slot, k, c)], worth [k * fr.(slot) +
   c]; a constant reads slot 0 with k = 0 (frames always hold at least
   one slot). *)
let short_form a =
  match a.a_slots with
  | [||] -> Some (0, 0, a.a_const)
  | [| s |] -> Some (s, a.a_coeffs.(0), a.a_const)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Offsets *)

type dim = {
  d_lo : int;
  d_ext : int;
  d_window : int;       (* = d_ext unless the dimension is virtual *)
  d_stride : int;
  d_plane : int array;  (* windowed: (rel mod window) * stride by rel *)
}

(* A window's plane table costs one word per declared element of the
   dimension, so it is built only while that stays within the slab's own
   size: a 1-D recurrence windowed to 2 words keeps the division. *)
let dims_of (s : slab) =
  Array.mapi
    (fun p di ->
      let stride = s.s_strides.(p) and w = di.di_window in
      { d_lo = di.di_lo;
        d_ext = di.di_extent;
        d_window = w;
        d_stride = stride;
        d_plane =
          (if w = di.di_extent || di.di_extent > allocated_words s then [||]
           else Array.init di.di_extent (fun r -> r mod w * stride)) })
    s.s_dims

(* [dims_of] once per slab: every reference an equation compiles to a
   slab shares one plane table. *)
let dims_memo () =
  let memo = ref [] in
  fun s ->
    match List.assq_opt s !memo with
    | Some ds -> ds
    | None ->
      let ds = dims_of s in
      memo := (s, ds) :: !memo;
      ds

let out_of_bounds (s : slab) p v =
  let di = s.s_dims.(p) in
  raise
    (Bounds
       (Printf.sprintf "%s: subscript %d = %d outside %d..%d" s.s_name (p + 1) v
          di.di_lo (di.di_lo + di.di_extent - 1)))

(* A dimension's share of the flat offset for [r], the subscript less
   the lower bound, once [r] is known to be in range. *)
let[@inline] dim_share d r =
  if d.d_window = d.d_ext then r * d.d_stride
  else if r < Array.length d.d_plane then Array.unsafe_get d.d_plane r
  else r mod d.d_window * d.d_stride

(* Dimension [p]'s share of the flat offset for subscript value [v].
   Every read and write tests the declared range here (a row tests it
   once per segment, [row_base]), which is what lets the readers and
   writers index payloads with [Array.unsafe_get] and
   [Array.unsafe_set]. *)
let[@inline] dim_offset s p d v =
  let r = v - d.d_lo in
  if r < 0 || r >= d.d_ext then out_of_bounds s p v;
  dim_share d r

type sub = Aff of affine | Dyn of (frame -> int)

(* A constant subscript is checked when the read runs, like any other,
   not when it compiles: a read behind a false guard must not trap. *)
let offset_fn (s : slab) ds (subs : sub array) : frame -> int =
  let n = ndims s in
  if Array.length subs <> n then
    fail "reference to %s has %d subscripts for %d dimensions" s.s_name
      (Array.length subs) n;
  match Array.map (function Aff a -> short_form a | Dyn _ -> None) subs with
  | [||] -> fun _ -> 0
  | [| Some (s0, k0, c0) |] ->
    let d0 = ds.(0) in
    fun fr -> dim_offset s 0 d0 ((k0 * Array.unsafe_get fr s0) + c0)
  | [| None |] -> (
    let d0 = ds.(0) in
    match subs.(0) with
    | Aff a -> fun fr -> dim_offset s 0 d0 (affine_value a fr)
    | Dyn f -> fun fr -> dim_offset s 0 d0 (f fr))
  | [| Some (s0, k0, c0); Some (s1, k1, c1) |] ->
    let d0 = ds.(0) and d1 = ds.(1) in
    fun fr ->
      let o0 = dim_offset s 0 d0 ((k0 * Array.unsafe_get fr s0) + c0) in
      o0 + dim_offset s 1 d1 ((k1 * Array.unsafe_get fr s1) + c1)
  | [| Some (s0, k0, c0); Some (s1, k1, c1); Some (s2, k2, c2) |] ->
    let d0 = ds.(0) and d1 = ds.(1) and d2 = ds.(2) in
    fun fr ->
      let o0 = dim_offset s 0 d0 ((k0 * Array.unsafe_get fr s0) + c0) in
      let o1 = dim_offset s 1 d1 ((k1 * Array.unsafe_get fr s1) + c1) in
      o0 + o1 + dim_offset s 2 d2 ((k2 * Array.unsafe_get fr s2) + c2)
  | _ ->
    (* [Eval] computes every subscript before it checks any, and a
       dynamic subscript may itself trap. *)
    let dyn = Array.exists (function Dyn _ -> true | Aff _ -> false) subs in
    fun fr ->
      let vs =
        if dyn then Array.map (function Dyn f -> f fr | Aff _ -> 0) subs else [||]
      in
      let off = ref 0 in
      for p = 0 to n - 1 do
        let v =
          match Array.unsafe_get subs p with
          | Aff a -> affine_value a fr
          | Dyn _ -> Array.unsafe_get vs p
        in
        off := !off + dim_offset s p (Array.unsafe_get ds p) v
      done;
      !off

(* Where a read finds its flat offset: a checked offset closure, or, in
   a row leaf, its row form [fr.(r_base) + v * r_step], [v] the row
   variable in frame slot [r_slot] and the base set by the segment's
   check ("Rows"). *)
type at = Off of (frame -> int) | Row of { r_slot : int; r_base : int; r_step : int }

let[@inline] offset at fr =
  match at with
  | Off f -> f fr
  | Row r -> Array.unsafe_get fr r.r_base + (Array.unsafe_get fr r.r_slot * r.r_step)

(* [at] as a closure, for a reader that a parent calls: matched once
   when the reader is built, not at every read. *)
let offset_closure = function
  | Off f -> f
  | Row { r_slot; r_base; r_step } ->
    fun fr -> Array.unsafe_get fr r_base + (Array.unsafe_get fr r_slot * r_step)

(* ------------------------------------------------------------------ *)
(* Operands and nodes a parent evaluates inline *)

(* An int or real operand: a read, by its checked offset closure or in
   its row form (a [Row]'s fields kept in the operand, so a read matches
   once), a constant, or a closure call for anything else. *)
type iop =
  | IRead of int array * (frame -> int)
  | IRow of int array * int * int * int  (* payload, row slot, base slot, step *)
  | IConst of int
  | IFn of (frame -> int)

type fop =
  | FRead of float array * (frame -> int)
  | FRow of float array * int * int * int
  | FConst of float
  | FFn of (frame -> float)

(* A comparison of two operands: ints as ints, other numbers as IEEE
   reals, and booleans and boxed values through a closure. *)
type cmp =
  | ICmp of Ast.binop * iop * iop
  | FCmp of Ast.binop * fop * fop
  | BFn of (frame -> bool)

(* A left-deep [+] chain of real reads, then [/ k] or [* k]. *)
type chain = {
  ch_arrs : float array array;      (* the reads, left to right *)
  ch_offs : at array;
  ch_scale : (Ast.binop * float) option;
}

(* A real value computed in place: an operand, or one operation over
   operands; [fnode] adds an [if] over two of them. *)
type fval =
  | FOp of fop
  | FArith of Ast.binop * fop * fop  (* + - * / *)
  | FMin of fop * fop
  | FMax of fop * fop
  | FChain of chain

type fnode = FVal of fval | FIf of cmp * fval * fval

let[@inline] iget o fr =
  match o with
  | IRow (a, slot, b, step) ->
    Array.unsafe_get a (Array.unsafe_get fr b + (Array.unsafe_get fr slot * step))
  | IRead (a, off) -> Array.unsafe_get a (off fr)
  | IConst c -> c
  | IFn f -> f fr

let[@inline] fget o fr =
  match o with
  | FRow (a, slot, b, step) ->
    Array.unsafe_get a (Array.unsafe_get fr b + (Array.unsafe_get fr slot * step))
  | FRead (a, off) -> Array.unsafe_get a (off fr)
  | FConst c -> c
  | FFn f -> f fr

let[@inline] iarith op (x : int) y =
  match op with Ast.Add -> x + y | Ast.Sub -> x - y | _ -> x * y

let[@inline] farith op (x : float) y =
  match op with
  | Ast.Add -> x +. y
  | Ast.Sub -> x -. y
  | Ast.Mul -> x *. y
  | _ -> x /. y

let[@inline] icmp op (x : int) y =
  match op with
  | Ast.Eq -> x = y
  | Ast.Ne -> x <> y
  | Ast.Lt -> x < y
  | Ast.Le -> x <= y
  | Ast.Gt -> x > y
  | _ -> x >= y

(* IEEE, as the emitted C compares: NaN is unequal even to itself. *)
let[@inline] fcmp op (x : float) y =
  match op with
  | Ast.Eq -> x = y
  | Ast.Ne -> x <> y
  | Ast.Lt -> x < y
  | Ast.Le -> x <= y
  | Ast.Gt -> x > y
  | _ -> x >= y

let[@inline] cmp_value c fr =
  match c with
  | ICmp (op, x, y) ->
    let u = iget x fr in
    icmp op u (iget y fr)
  | FCmp (op, x, y) ->
    let u = fget x fr in
    let w = fget y fr in
    fcmp op u w
  | BFn f -> f fr

let cmp_fn = function
  | ICmp (op, x, y) -> fun fr -> let u = iget x fr in icmp op u (iget y fr)
  | FCmp (op, x, y) -> fun fr -> let u = fget x fr in let w = fget y fr in fcmp op u w
  | BFn f -> f

let[@inline] scaled scale s =
  match scale with
  | None -> s
  | Some (Ast.Div, k) -> s /. k
  | Some (_, k) -> s *. k

let[@inline] chain_value ch fr =
  let arrs = ch.ch_arrs and offs = ch.ch_offs in
  let s =
    ref (Array.unsafe_get (Array.unsafe_get arrs 0) (offset (Array.unsafe_get offs 0) fr))
  in
  for i = 1 to Array.length arrs - 1 do
    s :=
      !s +. Array.unsafe_get (Array.unsafe_get arrs i) (offset (Array.unsafe_get offs i) fr)
  done;
  scaled ch.ch_scale !s

(* Stdlib's [min]/[max] semantics, monomorphic: [if a <= b then a else
   b] and [if a >= b then a else b], so NaN and signed-zero results match
   [Eval]'s polymorphic calls without going through [caml_lessequal]. *)
let[@inline] fval_value v fr =
  match v with
  | FOp o -> fget o fr
  | FArith (op, x, y) ->
    let u = fget x fr in
    let w = fget y fr in
    farith op u w
  | FMin (x, y) ->
    let u = fget x fr in
    let w = fget y fr in
    if u <= w then u else w
  | FMax (x, y) ->
    let u = fget x fr in
    let w = fget y fr in
    if u >= w then u else w
  | FChain ch -> chain_value ch fr

let[@inline] fnode_value n fr =
  match n with
  | FVal v -> fval_value v fr
  | FIf (c, t, f) -> if cmp_value c fr then fval_value t fr else fval_value f fr

(* ------------------------------------------------------------------ *)
(* Compiled expressions *)

type comp =
  | CInt of (frame -> int)
  | CReal of (frame -> float)
  | CBool of (frame -> bool)
  | CBoxed of (frame -> scalar)
  | CFRead of float array * at
  | CIRead of int array * at
  | CFNode of fnode

(* A node a parent calls returns its value boxed anyway, so its closure
   calls [fnode_value] out of line, the one copy of it that is not
   inlined into a store. *)
let as_real = function
  | CReal f -> f
  | CFRead (a, at) ->
    let off = offset_closure at in
    fun fr -> Array.unsafe_get a (off fr)
  | CFNode n -> fun fr -> (fnode_value [@inlined never]) n fr
  | CInt f -> fun fr -> float_of_int (f fr)
  | CIRead (a, at) ->
    let off = offset_closure at in
    fun fr -> float_of_int (Array.unsafe_get a (off fr))
  | CBoxed f -> fun fr -> as_float (f fr)
  | CBool _ -> fail "boolean used as a number"

let as_int_c = function
  | CInt f -> f
  | CIRead (a, at) ->
    let off = offset_closure at in
    fun fr -> Array.unsafe_get a (off fr)
  | CFRead (a, at) ->
    let off = offset_closure at in
    fun fr -> int_of_float (Array.unsafe_get a (off fr))
  | (CReal _ | CFNode _) as c ->
    let f = as_real c in
    fun fr -> int_of_float (f fr)
  | CBoxed f -> fun fr -> as_int (f fr)
  | CBool _ -> fail "boolean used as an integer"

let as_bool_c = function
  | CBool f -> f
  | CBoxed f -> fun fr -> as_bool (f fr)
  | CInt _ | CReal _ | CFRead _ | CIRead _ | CFNode _ -> fail "number used as a boolean"

let as_scalar_c = function
  | CInt f -> fun fr -> Sc_int (f fr)
  | CIRead (a, at) ->
    let off = offset_closure at in
    fun fr -> Sc_int (Array.unsafe_get a (off fr))
  | CFRead (a, at) ->
    let off = offset_closure at in
    fun fr -> Sc_real (Array.unsafe_get a (off fr))
  | (CReal _ | CFNode _) as c ->
    let f = as_real c in
    fun fr -> Sc_real (f fr)
  | CBool f -> fun fr -> Sc_bool (f fr)
  | CBoxed f -> f

let is_int = function CInt _ | CIRead _ -> true | _ -> false

let is_num = function
  | CInt _ | CIRead _ | CReal _ | CFRead _ | CFNode _ -> true
  | CBool _ | CBoxed _ -> false

(* [c] as an operand, and a real [c] as a node, for a parent or a store
   that evaluates it inline. *)
let iop_of = function
  | CIRead (a, Off off) -> IRead (a, off)
  | CIRead (a, Row r) -> IRow (a, r.r_slot, r.r_base, r.r_step)
  | c -> IFn (as_int_c c)

let fread a = function
  | Off off -> FRead (a, off)
  | Row r -> FRow (a, r.r_slot, r.r_base, r.r_step)

let fnode_of = function
  | CFNode n -> n
  | CFRead (a, at) -> FVal (FOp (fread a at))
  | c -> FVal (FOp (FFn (as_real c)))

(* A real literal, or an int form with no term, as a float. *)
let real_const ctx (e : Ast.expr) =
  match e.Ast.e with
  | Ast.Real f -> Some f
  | _ -> (
    match affine_of ctx e with
    | Some { a_slots = [||]; a_const; _ } -> Some (float_of_int a_const)
    | _ -> None)

(* [c], compiled from [e], as an inline operand. *)
let iop ctx (e : Ast.expr) c =
  match c with
  | CIRead _ -> iop_of c
  | _ -> (
    match affine_of ctx e with
    | Some { a_slots = [||]; a_const; _ } -> IConst a_const
    | _ -> iop_of c)

let fop ctx (e : Ast.expr) c =
  match c with
  | CFRead (a, at) -> fread a at
  | _ -> ( match real_const ctx e with Some f -> FConst f | None -> FFn (as_real c))

let fval_of ctx (e : Ast.expr) c =
  match c with CFNode (FVal v) -> v | _ -> FOp (fop ctx e c)

(* ------------------------------------------------------------------ *)
(* Guards *)

(* A comparison between two affine ints.  When both sides have at most
   one term (the boundary tests [I = 0], [J = M+1]), they are also kept
   as [k * fr.(slot) + c] fields read without matching on the forms. *)
type test = {
  t_op : Ast.binop;
  t_l : affine;
  t_r : affine;
  t_short : bool;
  t_ls : int; t_lk : int; t_lc : int;
  t_rs : int; t_rk : int; t_rc : int;
}

let make_test op l r =
  let short, (ls, lk, lc), (rs, rk, rc) =
    match short_form l, short_form r with
    | Some sl, Some sr -> (true, sl, sr)
    | _ -> (false, (0, 0, 0), (0, 0, 0))
  in
  { t_op = op; t_l = l; t_r = r; t_short = short;
    t_ls = ls; t_lk = lk; t_lc = lc; t_rs = rs; t_rk = rk; t_rc = rc }

let[@inline] run_test t fr =
  if t.t_short then
    let x = (t.t_lk * Array.unsafe_get fr t.t_ls) + t.t_lc in
    icmp t.t_op x ((t.t_rk * Array.unsafe_get fr t.t_rs) + t.t_rc)
  else
    let x = affine_value t.t_l fr in
    icmp t.t_op x (affine_value t.t_r fr)

(* One closure for an [and] ([or]) chain of affine tests: stop at the
   first false (true) one, as the short-circuit tree would. *)
let guard_fn ~is_or (tests : test array) : frame -> bool =
  let n = Array.length tests in
  if is_or then
    fun fr ->
      let i = ref 0 in
      while !i < n && not (run_test (Array.unsafe_get tests !i) fr) do incr i done;
      !i < n
  else
    fun fr ->
      let i = ref 0 in
      while !i < n && run_test (Array.unsafe_get tests !i) fr do incr i done;
      !i = n

(* [e] as a test, when it compares two affine ints. *)
let affine_test ctx (e : Ast.expr) : test option =
  match e.Ast.e with
  | Ast.Binop (((Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as cmp), a, b) -> (
    match affine_of ctx a, affine_of ctx b with
    | Some l, Some r -> Some (make_test cmp l r)
    | _ -> None)
  | _ -> None

(* The leaves of an [and] ([or]) tree, left to right, when every one is
   an affine test. *)
let guard_tests ctx op (e : Ast.expr) : test array option =
  let rec leaves (e : Ast.expr) acc =
    match e.Ast.e with
    | Ast.Binop (op', a, b) when op' = op -> leaves a (leaves b acc)
    | _ -> e :: acc
  in
  let tests = List.map (affine_test ctx) (leaves e []) in
  if List.for_all Option.is_some tests then
    Some (Array.of_list (List.map Option.get tests))
  else None

(* ------------------------------------------------------------------ *)
(* Rows *)

(* A row runs an innermost loop's equation, real or int, over [lo .. hi]
   of the loop variable, whose frame slot is the row slot.  The other
   slots are fixed for the row, so each affine form is [c + k * v] in the
   row variable [v].  The row is cut at every point where a guard test
   may change value; each segment then decides its guards once, checks
   its leaf's references at its two ends, and runs the leaf as a tight
   loop over flat offsets [base + v * step].

   The checks stay exact, never wrapping: a row runs only while [|lo|],
   [|hi|] and every coefficient of the row slot are under
   [row_index_max], each test side at [v = 0] under [row_const_max]
   (else the row runs point by point), and a reference's declared bounds
   under [row_const_max] (else it has no row form).  A base is kept less
   [a * step], [a] the segment's first point, which may wrap; int
   arithmetic is a ring, so [base + v * step] is still the checked
   offset at every point. *)
let row_index_max = 1 lsl 29

let row_const_max = 1 lsl 60

let[@inline] within bound x = x > -bound && x < bound

(* Segments shorter than this run point by point: setting up a strided
   segment costs more than its points save. *)
let row_min = 2

(* [f] at each point of [a .. b], checked: a segment whose ends fail a
   check, or a leaf with no row form. *)
let points ~slot f fr a b =
  for v = a to b do
    fr.(slot) <- v;
    f fr
  done

let coeff_of slot a =
  let k = ref 0 in
  for i = 0 to Array.length a.a_slots - 1 do
    if a.a_slots.(i) = slot then k := a.a_coeffs.(i)
  done;
  !k

(* A reference as a row walks it: every subscript affine, and no
   windowed dimension indexed by the row variable, so the flat offset
   moves by [rr_step] per point. *)
type rref = {
  rr_subs : affine array;
  rr_ks : int array;  (* each subscript's coefficient of the row slot *)
  rr_dims : dim array;
  rr_step : int;
}

let row_ref ~slot ds (subs : sub array) : rref option =
  let forms = List.filter_map (function Aff a -> Some a | Dyn _ -> None) (Array.to_list subs) in
  if List.length forms <> Array.length subs then None
  else
    let forms = Array.of_list forms in
    let ks = Array.map (coeff_of slot) forms in
    let fits k d =
      within row_index_max k
      && (k = 0 || d.d_window = d.d_ext)
      && within row_const_max d.d_lo
      && within row_const_max (d.d_lo + d.d_ext)
    in
    if not (Array.for_all2 fits ks ds) then None
    else
      let step = Array.fold_left ( + ) 0 (Array.map2 (fun k d -> k * d.d_stride) ks ds) in
      Some { rr_subs = forms; rr_ks = ks; rr_dims = ds; rr_step = step }

(* [r]'s flat offset at the frame's point, or -1 when a subscript is out
   of range there or [n] points on.  An affine subscript is monotone in
   the row variable, so its two ends cover every point between. *)
let row_base r fr n =
  let base = ref 0 and p = ref 0 in
  let nd = Array.length r.rr_dims in
  while !p < nd do
    let d = Array.unsafe_get r.rr_dims !p in
    let ra = affine_value (Array.unsafe_get r.rr_subs !p) fr - d.d_lo in
    let rb = ra + (Array.unsafe_get r.rr_ks !p * n) in
    if ra < 0 || ra >= d.d_ext || rb < 0 || rb >= d.d_ext then begin
      base := -1;
      p := nd
    end
    else begin
      base := !base + dim_share d ra;
      incr p
    end
  done;
  !base

(* A row's decision tree: [if] nodes whose guards hold one value over a
   segment, over leaves that run a segment [a .. b] from a frame at
   [a]. *)
type rnode =
  | RIf of (frame -> bool) * rnode * rnode
  | RLeaf of (frame -> int -> int -> unit)

let rec run_node n fr a b =
  match n with
  | RIf (g, t, f) -> if g fr then run_node t fr a b else run_node f fr a b
  | RLeaf run -> run fr a b

(* A row leaf's references, lowered to their row forms as [compile]
   meets them ([lowered]): reference [j]'s base sits in frame slot
   [lw_bases + j], so a leaf with any number of references runs without
   allocating. *)
type lowering = { lw_slot : int; lw_bases : int; mutable lw_refs : rref list }

(* Raised while lowering a leaf that has no row form. *)
exception No_row

(* The offset [compile] gives a reference while lowering: the reference
   joins those each segment checks, and reads unchecked in its row form.
   A scalar needs no check; a dynamic subscript, or a windowed dimension
   the row variable indexes, leaves the leaf with no row form. *)
let lowered lw ds (forms : sub array) : at =
  if Array.length forms = 0 then Off (fun _ -> 0)
  else
    match row_ref ~slot:lw.lw_slot ds forms with
    | None -> raise No_row
    | Some r ->
      let b = lw.lw_bases + List.length lw.lw_refs in
      lw.lw_refs <- r :: lw.lw_refs;
      Row { r_slot = lw.lw_slot; r_base = b; r_step = r.rr_step }

(* Checks a segment [a .. a + n], from a frame at [a]: each of [refs],
   left to right, at both ends.  Reference [j]'s base, less [a] steps,
   goes to frame slot [bases + j].  A segment shorter than [row_min]
   fails. *)
let[@inline] check_segment (refs : rref array) ~bases fr a n =
  let nr = Array.length refs in
  let ok = ref (n + 1 >= row_min) and j = ref 0 in
  while !ok && !j < nr do
    let r = Array.unsafe_get refs !j in
    let bj = row_base r fr n in
    fr.(bases + !j) <- bj - (a * r.rr_step);
    ok := bj >= 0;
    incr j
  done;
  !ok

(* A leaf over [a .. b]: [run] when the segment passes its checks, else
   [point] at each point, which traps where a point-by-point run
   would. *)
let strided ~slot ~bases ~point refs run =
  fun fr a b ->
    if check_segment refs ~bases fr a (b - a) then run fr a b
    else points ~slot point fr a b

(* A chain leaf's loop: a chain of reads, scaled and stored, with the
   reads inline; the destination's base follows the reads'.  A copy
   (one read) and a 4-point stencil, the paper kernels' chains, keep
   each read's array, base and step in locals; any other length runs
   the generic loop.  The sum is taken left to right, as [chain_value]
   takes it. *)
let chain_loop ~bases dst dstep (arrs : float array array) (refs : rref array) scale =
  let nr = Array.length arrs in
  let steps = Array.map (fun r -> r.rr_step) refs in
  match arrs, steps with
  | [| a0 |], [| s0 |] ->
    fun fr a b ->
      let b0 = Array.unsafe_get fr bases and db = Array.unsafe_get fr (bases + 1) in
      for v = a to b do
        let x = Array.unsafe_get a0 (b0 + (v * s0)) in
        Array.unsafe_set dst (db + (v * dstep)) (scaled scale x)
      done
  | [| a0; a1; a2; a3 |], [| s0; s1; s2; s3 |] ->
    fun fr a b ->
      let b0 = Array.unsafe_get fr bases and b1 = Array.unsafe_get fr (bases + 1) in
      let b2 = Array.unsafe_get fr (bases + 2) and b3 = Array.unsafe_get fr (bases + 3) in
      let db = Array.unsafe_get fr (bases + 4) in
      for v = a to b do
        let x =
          Array.unsafe_get a0 (b0 + (v * s0))
          +. Array.unsafe_get a1 (b1 + (v * s1))
          +. Array.unsafe_get a2 (b2 + (v * s2))
          +. Array.unsafe_get a3 (b3 + (v * s3))
        in
        Array.unsafe_set dst (db + (v * dstep)) (scaled scale x)
      done
  | _ ->
    let a0 = arrs.(0) and step0 = steps.(0) in
    fun fr a b ->
      let b0 = Array.unsafe_get fr bases and db = Array.unsafe_get fr (bases + nr) in
      for v = a to b do
        let s = ref (Array.unsafe_get a0 (b0 + (v * step0))) in
        for j = 1 to nr - 1 do
          s :=
            !s
            +. Array.unsafe_get (Array.unsafe_get arrs j)
                 (Array.unsafe_get fr (bases + j) + (v * Array.unsafe_get steps j))
        done;
        Array.unsafe_set dst (db + (v * dstep)) (scaled scale !s)
      done

(* An equation's destination payload. *)
type dest = Real_dst of float array | Int_dst of int array

(* [c]'s value stored at [off fr]: the value first, then the offset, as
   every equation writer does.  The value is computed in place, so a
   real read, node or int conversion is never boxed. *)
let store_at dst c (off : frame -> int) : frame -> unit =
  match dst, c with
  | Int_dst d, CInt f ->
    fun fr ->
      let v = f fr in
      Array.unsafe_set d (off fr) v
  | Int_dst d, _ ->
    let x = iop_of c in
    fun fr ->
      let v = iget x fr in
      Array.unsafe_set d (off fr) v
  | Real_dst d, (CInt _ | CIRead _) ->
    let x = iop_of c in
    fun fr ->
      let v = float_of_int (iget x fr) in
      Array.unsafe_set d (off fr) v
  | Real_dst d, _ ->
    let n = fnode_of c in
    fun fr ->
      let v = fnode_value n fr in
      Array.unsafe_set d (off fr) v

(* A general leaf's loop: [value], [compile]'s node over references in
   their row forms, computed and stored in place at each point, the
   destination's base in frame slot [db]. *)
let store_loop ~slot ~db dst dstep value =
  match dst, value with
  | Int_dst d, CInt f ->
    fun fr a b ->
      let db = Array.unsafe_get fr db in
      for v = a to b do
        fr.(slot) <- v;
        let u = f fr in
        Array.unsafe_set d (db + (v * dstep)) u
      done
  | Int_dst d, _ ->
    let x = iop_of value in
    fun fr a b ->
      let db = Array.unsafe_get fr db in
      for v = a to b do
        fr.(slot) <- v;
        let u = iget x fr in
        Array.unsafe_set d (db + (v * dstep)) u
      done
  | Real_dst d, (CInt _ | CIRead _) ->
    let x = iop_of value in
    fun fr a b ->
      let db = Array.unsafe_get fr db in
      for v = a to b do
        fr.(slot) <- v;
        let u = float_of_int (iget x fr) in
        Array.unsafe_set d (db + (v * dstep)) u
      done
  | Real_dst d, _ ->
    let n = fnode_of value in
    fun fr a b ->
      let db = Array.unsafe_get fr db in
      for v = a to b do
        fr.(slot) <- v;
        let u = fnode_value n fr in
        Array.unsafe_set d (db + (v * dstep)) u
      done

(* A guard test whose sides move with the row variable: with [rt_d] the
   difference of their coefficients of the row slot and [c] that of
   their values at [v = 0], it compares [rt_d * v + c] with 0. *)
type rtest = { rt_test : test; rt_d : int }

(* [floor (n / d)] for [d > 0]. *)
let fdiv n d = if n >= 0 then n / d else -((d - 1 - n) / d)

(* [rw_run fr lo hi] for a decision tree over the tests that move along
   the row.  Each test stores two cut points in the frame from slot
   [cuts] on: [d * v + c] keeps its sign below [ceil (-c / d)], between
   it and [floor (-c / d) + 1], and from there on, so every test keeps
   its value between consecutive cuts. *)
let row_fn ~slot ~cuts ~point tree (tests : rtest array) =
  let nt = Array.length tests in
  fun fr lo hi ->
    if lo > hi then ()
    else if not (within row_index_max lo && within row_index_max hi) then
      points ~slot point fr lo hi
    else begin
      fr.(slot) <- 0;
      let safe = ref true in
      for i = 0 to nt - 1 do
        let rt = Array.unsafe_get tests i in
        let c0 = cuts + (2 * i) in
        let l0 = affine_value rt.rt_test.t_l fr in
        let r0 = affine_value rt.rt_test.t_r fr in
        if not (within row_const_max l0 && within row_const_max r0) then safe := false
        else if rt.rt_d = 0 then begin
          fr.(c0) <- lo;
          fr.(c0 + 1) <- lo
        end
        else begin
          let c = l0 - r0 and d = abs rt.rt_d in
          let q = if rt.rt_d > 0 then -c else c in
          fr.(c0) <- -fdiv (-q) d;
          fr.(c0 + 1) <- fdiv q d + 1
        end
      done;
      if not !safe then points ~slot point fr lo hi
      else begin
        let a = ref lo in
        while !a <= hi do
          let next = ref (hi + 1) in
          for j = cuts to cuts + (2 * nt) - 1 do
            let c = Array.unsafe_get fr j in
            if c > !a && c < !next then next := c
          done;
          fr.(slot) <- !a;
          run_node tree fr !a (!next - 1);
          a := !next
        done
      end
    end

(* ------------------------------------------------------------------ *)
(* Expressions *)

let data_ref ctx (e : Ast.expr) =
  match e.Ast.e with
  | Ast.Index ({ Ast.e = Ast.Var x; _ }, subs) when Elab.find_data ctx.k_em x <> None ->
    Some (ctx.k_slab x, subs)
  | _ -> None

(* The reads of a left-deep [+] chain of at least [min] full real reads,
   and the constant it is then divided or multiplied by. *)
let chain_reads ctx ~min (e : Ast.expr) =
  let float_read (e : Ast.expr) =
    match data_ref ctx e with
    | Some (({ s_data = PFloat a; _ } as s), subs) when List.length subs = ndims s ->
      Some (a, s, subs)
    | _ -> None
  in
  let rec spine (e : Ast.expr) acc =
    match e.Ast.e with
    | Ast.Binop (Ast.Add, l, r) -> spine l (r :: acc)
    | _ -> e :: acc
  in
  let body, scale =
    match e.Ast.e with
    | Ast.Binop (((Ast.Div | Ast.Mul) as op), l, k) -> (
      match real_const ctx k with Some f -> (l, Some (op, f)) | None -> (e, None))
    | _ -> (e, None)
  in
  let leaves = spine body [] in
  if List.length leaves < min then None
  else
    let rs = List.map float_read leaves in
    if List.for_all Option.is_some rs then Some (List.map Option.get rs, scale) else None

(* A walk of [compile]: the caller's context, the plane tables of the
   slabs it has met, and, while a row leaf compiles, the lowering of its
   references. *)
type walk = { w_ctx : cctx; w_dims : slab -> dim array; w_lower : lowering option }

let walk ctx = { w_ctx = ctx; w_dims = dims_memo (); w_lower = None }

let rec compile_walk (w : walk) (e : Ast.expr) : comp =
  let ctx = w.w_ctx in
  match affine_of ctx e with
  | Some a -> CInt (affine_fn a)
  | None -> (
    match e.Ast.e with
    | Ast.Int n -> CInt (fun _ -> n)
    | Ast.Real f -> CReal (fun _ -> f)
    | Ast.Bool b -> CBool (fun _ -> b)
    | Ast.Var x -> (
      (* Not a loop variable or an int input: those are affine. *)
      match Elab.find_data ctx.k_em x with
      | Some d when Stypes.dims d.Elab.d_ty = [] ->
        (* Scalar data: read its 0-dimensional slab at run time (it may
           not be computed yet at compile time). *)
        compile_read w (ctx.k_slab x) []
      | Some _ -> fail "whole-array value %s in a scalar position" x
      | None -> (
        match Elab.enum_ordinal ctx.k_em x with
        | Some (ename, ord) -> CBoxed (fun _ -> Sc_enum (ename, ord))
        | None -> fail "unbound identifier %s" x))
    | Ast.Index _ -> (
      match data_ref ctx e with
      | Some (s, subs) when List.length subs = ndims s -> compile_read w s subs
      | _ ->
        (* Slice value: cold path. *)
        boxed_fallback w e)
    | Ast.Field _ -> boxed_fallback w e
    | Ast.Call (f, args) -> compile_call w e f args
    | Ast.Unop (Ast.Neg, a) -> (
      match compile_walk w a with
      | c when is_int c ->
        let f = as_int_c c in
        CInt (fun fr -> -f fr)
      | c ->
        let f = as_real c in
        CReal (fun fr -> -.f fr))
    | Ast.Unop (Ast.Not, a) ->
      let f = as_bool_c (compile_walk w a) in
      CBool (fun fr -> not (f fr))
    | Ast.Binop (op, a, b) -> compile_binop w e op a b
    | Ast.If (c, t, f) -> (
      let cond = condition w c in
      let tc = compile_walk w t in
      let fc = compile_walk w f in
      match tc, fc with
      | _ when is_int tc && is_int fc -> (
        let tf = as_int_c tc and ff = as_int_c fc in
        match cond with
        | ICmp (op, x, y) ->
          CInt (fun fr -> let u = iget x fr in if icmp op u (iget y fr) then tf fr else ff fr)
        | _ -> CInt (fun fr -> if cmp_value cond fr then tf fr else ff fr))
      | CBool tf, CBool ff ->
        let cf = cmp_fn cond in
        CBool (fun fr -> if cf fr then tf fr else ff fr)
      | _ when is_num tc && is_num fc -> CFNode (FIf (cond, fval_of ctx t tc, fval_of ctx f fc))
      | _ ->
        let cf = cmp_fn cond and tf = as_scalar_c tc and ff = as_scalar_c fc in
        CBoxed (fun fr -> if cf fr then tf fr else ff fr)))

(* Compile an array read: resolve the slab now, compile the subscripts
   into one offset, and emit a kind-specialized node. *)
and compile_read w (s : slab) subs : comp =
  let at = offset_at w s subs in
  match s.s_data with
  | PFloat a -> CFRead (a, at)
  | PInt a -> (
    match s.s_kind with
    | KEnum e ->
      let off = offset_closure at in
      CBoxed (fun fr -> Sc_enum (e, Array.unsafe_get a (off fr)))
    | _ -> CIRead (a, at))
  | PBool b ->
    let off = offset_closure at in
    CBool (fun fr -> Bytes.unsafe_get b (off fr) <> '\000')
  | PBox a ->
    let off = offset_closure at in
    CBoxed
      (fun fr ->
        match Array.unsafe_get a (off fr) with
        | Brecord fields -> Sc_record fields
        | Bnone -> Sc_record [])

(* The checked offset closure, or the row form while lowering. *)
and offset_at w (s : slab) (subs : Ast.expr list) : at =
  let ds = w.w_dims s and forms = subs_of w subs in
  match w.w_lower with
  | None -> Off (offset_fn s ds forms)
  | Some lw -> lowered lw ds forms

and subs_of w (subs : Ast.expr list) : sub array =
  let sub e =
    match affine_of w.w_ctx e with
    | Some a -> Aff a
    | None -> Dyn (as_int_c (compile_walk w e))
  in
  Array.of_list (List.map sub subs)

(* A left-deep [+] chain of at least two real reads, optionally divided
   or multiplied by a constant. *)
and sum_chain w (e : Ast.expr) : chain option =
  match chain_reads w.w_ctx ~min:2 e with
  | None -> None
  | Some (rs, scale) ->
    let offs = List.map (fun (_, s, subs) -> offset_at w s subs) rs in
    Some
      { ch_arrs = Array.of_list (List.map (fun (a, _, _) -> a) rs);
        ch_offs = Array.of_list offs;
        ch_scale = scale }

(* An [if]'s condition: a comparison that is not one affine test
   compares its operands inside the [if]'s own closure. *)
and condition w (c : Ast.expr) : cmp =
  match c.Ast.e with
  | Ast.Binop (((Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op), a, b)
    when affine_test w.w_ctx c = None ->
    compare_operands w op a b
  | _ -> BFn (as_bool_c (compile_walk w c))

and compile_binop w e op a b =
  let ctx = w.w_ctx in
  match op with
  | Ast.And | Ast.Or -> (
    let is_or = op = Ast.Or in
    match guard_tests ctx op e with
    | Some tests -> CBool (guard_fn ~is_or tests)
    | None ->
      let fa = as_bool_c (compile_walk w a) in
      let fb = as_bool_c (compile_walk w b) in
      if is_or then CBool (fun fr -> fa fr || fb fr)
      else CBool (fun fr -> fa fr && fb fr))
  | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div -> (
    match sum_chain w e with
    | Some ch -> CFNode (FVal (FChain ch))
    | None ->
      let ca = compile_walk w a in
      let cb = compile_walk w b in
      if op <> Ast.Div && is_int ca && is_int cb then
        let x = iop ctx a ca and y = iop ctx b cb in
        CInt (fun fr -> let u = iget x fr in iarith op u (iget y fr))
      else CFNode (FVal (FArith (op, fop ctx a ca, fop ctx b cb))))
  (* div/mod trap zero exactly as [Eval] does (same message, same
     exception, after both operands), so the hot compiled path and the
     cold tree-walk path fail identically instead of leaking a bare
     [Division_by_zero]. *)
  | Ast.Idiv ->
    let fa = as_int_c (compile_walk w a) in
    let fb = as_int_c (compile_walk w b) in
    CInt
      (fun fr ->
        let x = fa fr in
        let y = fb fr in
        if y = 0 then raise (Eval.Runtime_error "division by zero");
        x / y)
  | Ast.Imod ->
    let fa = as_int_c (compile_walk w a) in
    let fb = as_int_c (compile_walk w b) in
    CInt
      (fun fr ->
        let x = fa fr in
        let y = fb fr in
        if y = 0 then raise (Eval.Runtime_error "mod by zero");
        x mod y)
  | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> (
    match affine_test ctx e with
    | Some t -> CBool (fun fr -> run_test t fr)
    | None -> CBool (cmp_fn (compare_operands w op a b)))

(* A comparison's operands, compiled left to right: two ints compare as
   ints, two booleans or two boxed values by their own equality (or
   order), and any other numbers as reals. *)
and compare_operands w op a b : cmp =
  let ctx = w.w_ctx in
  let ca = compile_walk w a in
  let cb = compile_walk w b in
  match ca, cb with
  | _ when is_int ca && is_int cb -> ICmp (op, iop ctx a ca, iop ctx b cb)
  | CBool fa, CBool fb ->
    BFn
      (match op with
       | Ast.Eq -> fun fr -> let x = fa fr in x = fb fr
       | Ast.Ne -> fun fr -> let x = fa fr in x <> fb fr
       | _ -> fail "ordering on booleans")
  | CBoxed fa, CBoxed fb ->
    BFn
      (match op with
       | Ast.Eq -> fun fr -> let x = fa fr in equal_scalar x (fb fr)
       | Ast.Ne -> fun fr -> let x = fa fr in not (equal_scalar x (fb fr))
       | _ ->
         fun fr ->
           let x = fa fr in
           let c = Int.compare (as_int x) (as_int (fb fr)) in
           (match op with
            | Ast.Lt -> c < 0 | Ast.Le -> c <= 0 | Ast.Gt -> c > 0 | Ast.Ge -> c >= 0
            | _ -> assert false))
  | _ -> FCmp (op, fop ctx a ca, fop ctx b cb)

and compile_call w e f args =
  match f, args with
  | "sqrt", [ a ] -> un_real w sqrt a
  | "sin", [ a ] -> un_real w sin a
  | "cos", [ a ] -> un_real w cos a
  | "exp", [ a ] -> un_real w exp a
  | "ln", [ a ] -> un_real w log a
  | "abs", [ a ] -> (
    match compile_walk w a with
    | c when is_int c ->
      let fa = as_int_c c in
      CInt (fun fr -> abs (fa fr))
    | c ->
      let fa = as_real c in
      CReal (fun fr -> abs_float (fa fr)))
  | "intpart", [ a ] ->
    let fa = as_real (compile_walk w a) in
    CInt (fun fr -> int_of_float (fa fr))
  | "min", [ a; b ] -> minmax w ~is_min:true a b
  | "max", [ a; b ] -> minmax w ~is_min:false a b
  | _ -> boxed_fallback w e

and un_real w g a =
  let fa = as_real (compile_walk w a) in
  CReal (fun fr -> g (fa fr))

(* [min]/[max] as [fval_value] takes them, on ints too. *)
and minmax w ~is_min a b =
  let ctx = w.w_ctx in
  let ca = compile_walk w a in
  let cb = compile_walk w b in
  if is_int ca && is_int cb then
    let x = iop ctx a ca and y = iop ctx b cb in
    if is_min then
      CInt (fun fr -> let u = iget x fr in let v = iget y fr in if u <= v then u else v)
    else CInt (fun fr -> let u = iget x fr in let v = iget y fr in if u >= v then u else v)
  else
    let x = fop ctx a ca and y = fop ctx b cb in
    CFNode (FVal (if is_min then FMin (x, y) else FMax (x, y)))

(* The tree-walk evaluator, which a row leaf does not lower. *)
and boxed_fallback w e =
  if Option.is_some w.w_lower then raise No_row;
  let ctx = w.w_ctx in
  CBoxed (fun fr -> Eval.eval_scalar (eval_ctx ctx fr) e)

(* ------------------------------------------------------------------ *)
(* Public entry points. *)

let compile ctx e = compile_walk (walk ctx) e

let compile_int ctx e = as_int_c (compile ctx e)

let compile_real ctx e = as_real (compile ctx e)

let compile_bool ctx e = as_bool_c (compile ctx e)

let compile_scalar ctx e = as_scalar_c (compile ctx e)

let compile_offset ctx s subs = offset_fn s (dims_of s) (subs_of (walk ctx) subs)

(* One reference compiled once: the offset closure every point calls
   and, for a row over [slot], the row form built from the same
   subscript forms. *)
let reference ?row w (s : slab) subs =
  let ds = w.w_dims s and forms = subs_of w subs in
  ( offset_fn s ds forms,
    match row with Some slot -> row_ref ~slot ds forms | None -> None )

(* [c] as a guard closure, the one [compile] makes, with its tests when
   it is an affine test or an [and]/[or] chain of them. *)
let guard w (c : Ast.expr) =
  let ctx = w.w_ctx in
  match c.Ast.e with
  | Ast.Binop (((Ast.And | Ast.Or) as op), _, _) -> (
    match guard_tests ctx op c with
    | Some ts -> (guard_fn ~is_or:(op = Ast.Or) ts, Some ts)
    | None -> (as_bool_c (compile_walk w c), None))
  | _ -> (
    match affine_test ctx c with
    | Some t -> ((fun fr -> run_test t fr), Some [| t |])
    | None -> (as_bool_c (compile_walk w c), None))

type row = { rw_run : frame -> int -> int -> unit; rw_scratch : int }

(* The store of a real or int equation, fused with its [if] nodes and,
   for a real one, its chain nodes: the value is computed and stored
   inside one closure, never boxed when it is a read, a node or an int,
   and before the destination offset, as every equation writer does.
   One walk context serves the whole equation, so its references share
   one plane table per slab.  With [~row:slot], the same walk builds the
   equation's row over that slot (see "Rows"): an [if] whose guard is
   affine tests that move along the row by bounded steps becomes a
   decision node, and any other subtree becomes a leaf.  A real chain of
   reads runs as [chain_loop]; any other leaf compiles again with its
   references in their row forms and runs as [store_loop], unless one
   has no row form or the subtree takes the tree-walk fallback, and then
   runs point by point.  There is no row when the destination has no row
   form or no leaf is strided. *)
let compile_store ?row ctx (s : slab) (subs : Ast.expr list) (e : Ast.expr) :
    (frame -> unit) * row option =
  let dst =
    match s.s_data with
    | PFloat a -> Real_dst a
    | PInt a -> Int_dst a
    | PBool _ | PBox _ -> fail "store into %s, which is neither real nor int" s.s_name
  in
  let w = walk ctx in
  let off, rd = reference ?row w s subs in
  let tests = ref [] and reads = ref 0 and strided_leaf = ref false in
  (* Whether a guard's tests can be decided once per segment; if so,
     those that move along the row join the cut tests. *)
  let decide slot ts =
    let moving =
      List.filter_map
        (fun t ->
          let lk = coeff_of slot t.t_l and rk = coeff_of slot t.t_r in
          if lk = 0 && rk = 0 then None else Some (t, lk, rk))
        (Array.to_list ts)
    in
    let ok =
      List.for_all (fun (_, lk, rk) -> within row_index_max lk && within row_index_max rk) moving
    in
    if ok then
      List.iter
        (fun (t, lk, rk) ->
          (* Tests that differ only in their comparison share their cuts. *)
          let same rt = rt.rt_test.t_l = t.t_l && rt.rt_test.t_r = t.t_r in
          if not (List.exists same !tests) then
            tests := { rt_test = t; rt_d = lk - rk } :: !tests)
        moving;
    ok
  in
  let node slot point = function Some n -> n | None -> RLeaf (points ~slot point) in
  (* A strided leaf over [refs], the destination last. *)
  let leaf slot ~point refs run =
    strided_leaf := true;
    reads := max !reads (Array.length refs);
    Some (RLeaf (strided ~slot ~bases:(slot + 1) ~point refs run))
  in
  (* [e] as a general leaf whose checked per-point store is [point]. *)
  let general (slot, rd) ~point e =
    let lw = { lw_slot = slot; lw_bases = slot + 1; lw_refs = [] } in
    match compile_walk { w with w_lower = Some lw } e with
    | exception No_row -> None
    | value ->
      let nr = List.length lw.lw_refs in
      leaf slot ~point
        (Array.of_list (List.rev (rd :: lw.lw_refs)))
        (store_loop ~slot ~db:(slot + 1 + nr) dst rd.rr_step value)
  in
  let rec go rw (e : Ast.expr) : (frame -> unit) * rnode option =
    match e.Ast.e, dst with
    | Ast.If (c, t, f), _ ->
      let g, ts = guard w c in
      let split =
        match rw, ts with Some (slot, _), Some ts when decide slot ts -> rw | _ -> None
      in
      let st, rt = go split t in
      let sf, rf = go split f in
      let point fr = if g fr then st fr else sf fr in
      ( point,
        match split, rw with
        | Some (slot, _), _ -> Some (RIf (g, node slot st rt, node slot sf rf))
        | None, Some rw -> general rw ~point e
        | None, None -> None )
    | _, Real_dst d -> (
      match chain_reads ctx ~min:1 e with
      | Some (rs, scale) ->
        let row = Option.map fst rw in
        let refs = List.map (fun (a, s, subs) -> (a, reference ?row w s subs)) rs in
        let arrs = Array.of_list (List.map fst refs) in
        let offs = Array.of_list (List.map (fun (_, (o, _)) -> o) refs) in
        let point =
          match arrs, offs, scale with
          | [| a |], [| o |], None ->
            fun fr ->
              let v = Array.unsafe_get a (o fr) in
              Array.unsafe_set d (off fr) v
          | _ ->
            let ch =
              { ch_arrs = arrs; ch_offs = Array.map (fun o -> Off o) offs; ch_scale = scale }
            in
            fun fr ->
              let v = chain_value ch fr in
              Array.unsafe_set d (off fr) v
        in
        let rrefs = Array.of_list (List.filter_map (fun (_, (_, r)) -> r) refs) in
        ( point,
          match rw with
          | Some (slot, rd) when Array.length rrefs = Array.length arrs ->
            leaf slot ~point (Array.append rrefs [| rd |])
              (chain_loop ~bases:(slot + 1) d rd.rr_step arrs rrefs scale)
          | _ -> None )
      | None -> plain rw e)
    | _, Int_dst _ -> plain rw e
  and plain rw e =
    let point = store_at dst (compile_walk w e) off in
    (point, Option.bind rw (fun rw -> general rw ~point e))
  in
  let rw = match row, rd with Some slot, Some rd -> Some (slot, rd) | _ -> None in
  let point, tree = go rw e in
  match rw, tree with
  | Some (slot, _), Some tree when !strided_leaf ->
    let tests = Array.of_list !tests in
    ( point,
      Some
        { rw_run = row_fn ~slot ~cuts:(slot + 1 + !reads) ~point tree tests;
          rw_scratch = !reads + (2 * Array.length tests) } )
  | _ -> (point, None)
