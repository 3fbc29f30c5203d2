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
     table, so the hot path does no division.
   - Reads are typed nodes ([CFRead], [CIRead]) that a parent arithmetic
     node reads inline instead of calling a closure that boxes.
   - Superinstructions: a left-deep [+] chain of real reads, optionally
     divided or multiplied by a constant, and an [and]/[or] chain of
     comparisons between affine ints each become one closure.
     [compile_store_real] fuses an equation's store with its [if] and
     chain nodes, so a real equation stores without boxing.
   - Rows: the same walk builds the row form of a real equation that an
     innermost loop runs ("Rows" below).  A row is cut where a guard
     test compares differently, each segment decides its guards once,
     checks its leaf's references at its two ends, and runs the leaf
     (a real constant, or a [+] chain of one or more reads, scaled or
     not) as a tight loop over flat offsets.  A segment whose check
     fails, and any other leaf, run the checked per-point closure.

   Every node evaluates its operands left to right, as [Eval] does, so a
   read that traps raises the same [Value.Bounds] message; no float
   operation is reassociated.  Run sequentially at the benchmark's sizes,
   fig6, h3 and lcs allocate 0.05, 0.07 and 0.02 minor words per
   evaluation, set-up included; test_exec's "allocation" cases pin
   bounds of 1, 0.25 and 0.1.

   Module inputs and already-computed scalar locals are read from their
   store slabs at compile time or run time as appropriate; anything
   exotic (records, module calls, slices) falls back to the tree-walk
   evaluator through the [boxed] case.  The test suite checks
   closure-compiled results against [Eval] on random expressions. *)

open Ps_sem
open Value
module Ast = Ps_lang.Ast

type frame = int array

type comp =
  | CInt of (frame -> int)
  | CReal of (frame -> float)
  | CBool of (frame -> bool)
  | CBoxed of (frame -> scalar)
  | CFRead of float array * (frame -> int)
  | CIRead of int array * (frame -> int)

type cctx = {
  k_em : Elab.emodule;
  k_slab : string -> slab;          (* resolve/allocate a data slab *)
  k_slot : string -> int option;    (* loop variable -> frame slot *)
  k_call : string -> value list -> value list;
}

exception Cannot_compile of string

let fail fmt = Fmt.kstr (fun m -> raise (Cannot_compile m)) fmt

let as_real = function
  | CReal f -> f
  | CFRead (a, off) -> fun fr -> Array.unsafe_get a (off fr)
  | CInt f -> fun fr -> float_of_int (f fr)
  | CIRead (a, off) -> fun fr -> float_of_int (Array.unsafe_get a (off fr))
  | CBoxed f -> fun fr -> as_float (f fr)
  | CBool _ -> fail "boolean used as a number"

let as_int_c = function
  | CInt f -> f
  | CIRead (a, off) -> fun fr -> Array.unsafe_get a (off fr)
  | CReal f -> fun fr -> int_of_float (f fr)
  | CFRead (a, off) -> fun fr -> int_of_float (Array.unsafe_get a (off fr))
  | CBoxed f -> fun fr -> as_int (f fr)
  | CBool _ -> fail "boolean used as an integer"

let as_bool_c = function
  | CBool f -> f
  | CBoxed f -> fun fr -> as_bool (f fr)
  | CInt _ | CReal _ | CFRead _ | CIRead _ -> fail "number used as a boolean"

let as_scalar_c = function
  | CInt f -> fun fr -> Sc_int (f fr)
  | CIRead (a, off) -> fun fr -> Sc_int (Array.unsafe_get a (off fr))
  | CReal f -> fun fr -> Sc_real (f fr)
  | CFRead (a, off) -> fun fr -> Sc_real (Array.unsafe_get a (off fr))
  | CBool f -> fun fr -> Sc_bool (f fr)
  | CBoxed f -> f

let is_int = function CInt _ | CIRead _ -> true | _ -> false

let is_num = function
  | CInt _ | CIRead _ | CReal _ | CFRead _ -> true
  | CBool _ | CBoxed _ -> false

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

(* ------------------------------------------------------------------ *)
(* Operands a parent node evaluates inline: a read, a constant, or a
   closure call for anything else. *)

type iop = IRead of int array * (frame -> int) | IConst of int | IFn of (frame -> int)

type fop =
  | FRead of float array * (frame -> int)
  | FConst of float
  | FFn of (frame -> float)

let[@inline] iget o fr =
  match o with
  | IRead (a, off) -> Array.unsafe_get a (off fr)
  | IConst c -> c
  | IFn f -> f fr

let[@inline] fget o fr =
  match o with
  | FRead (a, off) -> Array.unsafe_get a (off fr)
  | FConst c -> c
  | FFn f -> f fr

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
  | CIRead (a, off) -> IRead (a, off)
  | _ -> (
    match affine_of ctx e with
    | Some { a_slots = [||]; a_const; _ } -> IConst a_const
    | _ -> IFn (as_int_c c))

let fop ctx (e : Ast.expr) c =
  match c with
  | CFRead (a, off) -> FRead (a, off)
  | _ -> ( match real_const ctx e with Some f -> FConst f | None -> FFn (as_real c))

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
(* Real sum chains *)

type chain = {
  ch_arrs : float array array;      (* the reads, left to right *)
  ch_offs : (frame -> int) array;
  ch_scale : (Ast.binop * float) option;  (* then [/ k] or [* k] *)
}

let[@inline] scaled scale s =
  match scale with
  | None -> s
  | Some (Ast.Div, k) -> s /. k
  | Some (_, k) -> s *. k

let[@inline] chain_value ch fr =
  let arrs = ch.ch_arrs and offs = ch.ch_offs in
  let s = ref (Array.unsafe_get (Array.unsafe_get arrs 0) ((Array.unsafe_get offs 0) fr)) in
  for i = 1 to Array.length arrs - 1 do
    s := !s +. Array.unsafe_get (Array.unsafe_get arrs i) ((Array.unsafe_get offs i) fr)
  done;
  scaled ch.ch_scale !s

(* ------------------------------------------------------------------ *)
(* Rows *)

(* A row runs an innermost loop's real equation over [lo .. hi] of the
   loop variable, whose frame slot is the row slot.  The other slots are
   fixed for the row, so each affine form is [c + k * v] in the row
   variable [v].  The row is cut at every point where a guard test may
   change value; each segment then decides its guards once, checks its
   leaf's references at its two ends, and runs the leaf as a tight loop
   over flat offsets [base + i * step].

   The arithmetic stays exact, never wrapping: a row runs only while
   [|lo|], [|hi|] and every coefficient of the row slot are under
   [row_index_max], each test side at [v = 0] under [row_const_max]
   (else the row runs point by point), and a reference's declared bounds
   under [row_const_max] (else it has no row form). *)
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

let const_leaf ~slot ~point dst rd (x : float) =
  let step = rd.rr_step in
  fun fr a b ->
    let n = b - a in
    let db = if n + 1 < row_min then -1 else row_base rd fr n in
    if db < 0 then points ~slot point fr a b
    else
      for i = 0 to n do
        Array.unsafe_set dst (db + (i * step)) x
      done

(* A chain of reads, scaled and stored.  Read [j]'s base offset sits in
   frame slot [bases + j], so a chain of any length runs without
   allocating; the reads are checked left to right, then the
   destination, the order a point evaluates them in. *)
let chain_leaf ~slot ~bases ~point dst rd (arrs : float array array) (refs : rref array)
    scale =
  let nr = Array.length arrs in
  let steps = Array.map (fun r -> r.rr_step) refs in
  let a0 = arrs.(0) and step0 = steps.(0) and dstep = rd.rr_step in
  fun fr a b ->
    let n = b - a in
    let ok = ref (n + 1 >= row_min) and j = ref 0 in
    while !ok && !j < nr do
      let bj = row_base (Array.unsafe_get refs !j) fr n in
      fr.(bases + !j) <- bj;
      ok := bj >= 0;
      incr j
    done;
    let db = if !ok then row_base rd fr n else -1 in
    if db < 0 then points ~slot point fr a b
    else
      let b0 = Array.unsafe_get fr bases in
      for i = 0 to n do
        let s = ref (Array.unsafe_get a0 (b0 + (i * step0))) in
        for j = 1 to nr - 1 do
          s :=
            !s
            +. Array.unsafe_get (Array.unsafe_get arrs j)
                 (Array.unsafe_get fr (bases + j) + (i * Array.unsafe_get steps j))
        done;
        Array.unsafe_set dst (db + (i * dstep)) (scaled scale !s)
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

let rec compile (ctx : cctx) (e : Ast.expr) : comp =
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
        compile_read ctx (ctx.k_slab x) []
      | Some _ -> fail "whole-array value %s in a scalar position" x
      | None -> (
        match Elab.enum_ordinal ctx.k_em x with
        | Some (ename, ord) -> CBoxed (fun _ -> Sc_enum (ename, ord))
        | None -> fail "unbound identifier %s" x))
    | Ast.Index _ -> (
      match data_ref ctx e with
      | Some (s, subs) when List.length subs = ndims s -> compile_read ctx s subs
      | _ ->
        (* Slice value: cold path. *)
        boxed_fallback ctx e)
    | Ast.Field _ -> boxed_fallback ctx e
    | Ast.Call (f, args) -> compile_call ctx e f args
    | Ast.Unop (Ast.Neg, a) -> (
      match compile ctx a with
      | c when is_int c ->
        let f = as_int_c c in
        CInt (fun fr -> -f fr)
      | c ->
        let f = as_real c in
        CReal (fun fr -> -.f fr))
    | Ast.Unop (Ast.Not, a) ->
      let f = as_bool_c (compile ctx a) in
      CBool (fun fr -> not (f fr))
    | Ast.Binop (op, a, b) -> compile_binop ctx e op a b
    | Ast.If (c, t, f) -> (
      let cf = as_bool_c (compile ctx c) in
      let tc = compile ctx t in
      let fc = compile ctx f in
      match tc, fc with
      | _ when is_int tc && is_int fc ->
        let tf = as_int_c tc and ff = as_int_c fc in
        CInt (fun fr -> if cf fr then tf fr else ff fr)
      | CBool tf, CBool ff -> CBool (fun fr -> if cf fr then tf fr else ff fr)
      | _ when is_num tc && is_num fc ->
        let tf = as_real tc and ff = as_real fc in
        CReal (fun fr -> if cf fr then tf fr else ff fr)
      | _ ->
        let tf = as_scalar_c tc and ff = as_scalar_c fc in
        CBoxed (fun fr -> if cf fr then tf fr else ff fr)))

(* Compile an array read: resolve the slab now, compile the subscripts
   into one offset closure, and emit a kind-specialized node. *)
and compile_read ctx (s : slab) subs : comp =
  let off = compile_offset ctx s subs in
  match s.s_data with
  | PFloat a -> CFRead (a, off)
  | PInt a -> (
    match s.s_kind with
    | KEnum e -> CBoxed (fun fr -> Sc_enum (e, Array.unsafe_get a (off fr)))
    | _ -> CIRead (a, off))
  | PBool b -> CBool (fun fr -> Bytes.unsafe_get b (off fr) <> '\000')
  | PBox a ->
    CBoxed
      (fun fr ->
        match Array.unsafe_get a (off fr) with
        | Brecord fields -> Sc_record fields
        | Bnone -> Sc_record [])

and compile_offset ctx (s : slab) (subs : Ast.expr list) : frame -> int =
  offset_fn s (dims_of s) (subs_of ctx subs)

and subs_of ctx (subs : Ast.expr list) : sub array =
  let sub e =
    match affine_of ctx e with
    | Some a -> Aff a
    | None -> Dyn (as_int_c (compile ctx e))
  in
  Array.of_list (List.map sub subs)

(* A left-deep [+] chain of at least two real reads, optionally divided
   or multiplied by a constant. *)
and sum_chain ctx (e : Ast.expr) : chain option =
  match chain_reads ctx ~min:2 e with
  | None -> None
  | Some (rs, scale) ->
    let offs = List.map (fun (_, s, subs) -> compile_offset ctx s subs) rs in
    Some
      { ch_arrs = Array.of_list (List.map (fun (a, _, _) -> a) rs);
        ch_offs = Array.of_list offs;
        ch_scale = scale }

and compile_binop ctx e op a b =
  match op with
  | Ast.And | Ast.Or -> (
    let is_or = op = Ast.Or in
    match guard_tests ctx op e with
    | Some tests -> CBool (guard_fn ~is_or tests)
    | None ->
      let fa = as_bool_c (compile ctx a) in
      let fb = as_bool_c (compile ctx b) in
      if is_or then CBool (fun fr -> fa fr || fb fr)
      else CBool (fun fr -> fa fr && fb fr))
  | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div -> (
    match sum_chain ctx e with
    | Some ch -> CReal (fun fr -> chain_value ch fr)
    | None ->
      let ca = compile ctx a in
      let cb = compile ctx b in
      if op <> Ast.Div && is_int ca && is_int cb then
        let x = iop ctx a ca and y = iop ctx b cb in
        CInt (fun fr -> let u = iget x fr in iarith op u (iget y fr))
      else
        let x = fop ctx a ca and y = fop ctx b cb in
        CReal (fun fr -> let u = fget x fr in farith op u (fget y fr)))
  (* div/mod trap zero exactly as [Eval] does (same message, same
     exception, after both operands), so the hot compiled path and the
     cold tree-walk path fail identically instead of leaking a bare
     [Division_by_zero]. *)
  | Ast.Idiv ->
    let fa = as_int_c (compile ctx a) in
    let fb = as_int_c (compile ctx b) in
    CInt
      (fun fr ->
        let x = fa fr in
        let y = fb fr in
        if y = 0 then raise (Eval.Runtime_error "division by zero");
        x / y)
  | Ast.Imod ->
    let fa = as_int_c (compile ctx a) in
    let fb = as_int_c (compile ctx b) in
    CInt
      (fun fr ->
        let x = fa fr in
        let y = fb fr in
        if y = 0 then raise (Eval.Runtime_error "mod by zero");
        x mod y)
  | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> (
    match affine_test ctx e with
    | Some t -> CBool (fun fr -> run_test t fr)
    | None -> compile_compare ctx op a b)

and compile_compare ctx op a b =
  let ca = compile ctx a in
  let cb = compile ctx b in
  match ca, cb with
  | _ when is_int ca && is_int cb ->
    let x = iop ctx a ca and y = iop ctx b cb in
    CBool (fun fr -> let u = iget x fr in icmp op u (iget y fr))
  | CBool fa, CBool fb ->
    CBool
      (match op with
       | Ast.Eq -> fun fr -> let x = fa fr in x = fb fr
       | Ast.Ne -> fun fr -> let x = fa fr in x <> fb fr
       | _ -> fail "ordering on booleans")
  | CBoxed fa, CBoxed fb ->
    CBool
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
  | _ ->
    let x = fop ctx a ca and y = fop ctx b cb in
    CBool (fun fr -> let u = fget x fr in fcmp op u (fget y fr))

and compile_call ctx e f args =
  match f, args with
  | "sqrt", [ a ] -> un_real ctx sqrt a
  | "sin", [ a ] -> un_real ctx sin a
  | "cos", [ a ] -> un_real ctx cos a
  | "exp", [ a ] -> un_real ctx exp a
  | "ln", [ a ] -> un_real ctx log a
  | "abs", [ a ] -> (
    match compile ctx a with
    | c when is_int c ->
      let fa = as_int_c c in
      CInt (fun fr -> abs (fa fr))
    | c ->
      let fa = as_real c in
      CReal (fun fr -> abs_float (fa fr)))
  | "intpart", [ a ] ->
    let fa = as_real (compile ctx a) in
    CInt (fun fr -> int_of_float (fa fr))
  | "min", [ a; b ] -> minmax ctx ~is_min:true a b
  | "max", [ a; b ] -> minmax ctx ~is_min:false a b
  | _ -> boxed_fallback ctx e

and un_real ctx g a =
  let fa = as_real (compile ctx a) in
  CReal (fun fr -> g (fa fr))

(* Stdlib's [min]/[max] semantics, monomorphic: [if a <= b then a else
   b] and [if a >= b then a else b], so NaN and signed-zero results match
   [Eval]'s polymorphic calls without going through [caml_lessequal]. *)
and minmax ctx ~is_min a b =
  let ca = compile ctx a in
  let cb = compile ctx b in
  if is_int ca && is_int cb then
    let x = iop ctx a ca and y = iop ctx b cb in
    if is_min then
      CInt (fun fr -> let u = iget x fr in let v = iget y fr in if u <= v then u else v)
    else CInt (fun fr -> let u = iget x fr in let v = iget y fr in if u >= v then u else v)
  else
    let x = fop ctx a ca and y = fop ctx b cb in
    if is_min then
      CReal (fun fr -> let u = fget x fr in let v = fget y fr in if u <= v then u else v)
    else CReal (fun fr -> let u = fget x fr in let v = fget y fr in if u >= v then u else v)

and boxed_fallback ctx e =
  CBoxed (fun fr -> Eval.eval_scalar (eval_ctx ctx fr) e)

(* ------------------------------------------------------------------ *)
(* Public entry points. *)

let compile_int ctx e = as_int_c (compile ctx e)

let compile_real ctx e = as_real (compile ctx e)

let compile_bool ctx e = as_bool_c (compile ctx e)

let compile_scalar ctx e = as_scalar_c (compile ctx e)

(* One reference compiled once: the offset closure every point calls
   and, for a row over [slot], the row form built from the same
   subscript forms. *)
let reference ?row ctx (s : slab) subs =
  let ds = dims_of s and forms = subs_of ctx subs in
  ( offset_fn s ds forms,
    match row with Some slot -> row_ref ~slot ds forms | None -> None )

(* [c] as a guard closure, the one [compile] makes, with its tests when
   it is an affine test or an [and]/[or] chain of them. *)
let guard ctx (c : Ast.expr) =
  match c.Ast.e with
  | Ast.Binop (((Ast.And | Ast.Or) as op), _, _) -> (
    match guard_tests ctx op c with
    | Some ts -> (guard_fn ~is_or:(op = Ast.Or) ts, Some ts)
    | None -> (compile_bool ctx c, None))
  | _ -> (
    match affine_test ctx c with
    | Some t -> ((fun fr -> run_test t fr), Some [| t |])
    | None -> (compile_bool ctx c, None))

type row = { rw_run : frame -> int -> int -> unit; rw_scratch : int }

(* The store of a real equation, fused with its [if] and chain nodes:
   the value is computed and stored inside one closure, never boxed, and
   before the destination offset, as every equation writer does.  With
   [~row:slot], the same walk builds the equation's row over that slot
   (see "Rows"): an [if] whose guard is affine tests that move along the
   row by bounded steps becomes a decision node, and a real constant or a
   chain of reads whose references all have row forms becomes a strided
   leaf; any other subtree runs point by point.  There is no row when
   the destination has no row form or no leaf is strided. *)
let compile_store_real ?row ctx (s : slab) (subs : Ast.expr list) (e : Ast.expr) :
    (frame -> unit) * row option =
  let dst = match s.s_data with PFloat a -> a | _ -> fail "real store into %s" s.s_name in
  let off, rd = reference ?row ctx s subs in
  let tests = ref [] and reads = ref 0 and strided = ref false in
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
  let rec go rw (e : Ast.expr) : (frame -> unit) * rnode option =
    match e.Ast.e with
    | Ast.If (c, t, f) ->
      let g, ts = guard ctx c in
      let rw =
        match rw, ts with Some (slot, _), Some ts when decide slot ts -> rw | _ -> None
      in
      let st, rt = go rw t in
      let sf, rf = go rw f in
      let point fr = if g fr then st fr else sf fr in
      ( point,
        Option.map (fun (slot, _) -> RIf (g, node slot st rt, node slot sf rf)) rw )
    | Ast.Real x ->
      let point fr = Array.unsafe_set dst (off fr) x in
      ( point,
        Option.map
          (fun (slot, rd) ->
            strided := true;
            RLeaf (const_leaf ~slot ~point dst rd x))
          rw )
    | _ -> (
      match chain_reads ctx ~min:1 e with
      | Some (rs, scale) ->
        let row = Option.map fst rw in
        let refs = List.map (fun (a, s, subs) -> (a, reference ?row ctx s subs)) rs in
        let arrs = Array.of_list (List.map fst refs) in
        let offs = Array.of_list (List.map (fun (_, (o, _)) -> o) refs) in
        let point =
          match arrs, offs, scale with
          | [| a |], [| o |], None ->
            fun fr ->
              let v = Array.unsafe_get a (o fr) in
              Array.unsafe_set dst (off fr) v
          | _ ->
            let ch = { ch_arrs = arrs; ch_offs = offs; ch_scale = scale } in
            fun fr ->
              let v = chain_value ch fr in
              Array.unsafe_set dst (off fr) v
        in
        let rrefs = List.filter_map (fun (_, (_, r)) -> r) refs in
        ( point,
          match rw with
          | Some (slot, rd) when List.length rrefs = Array.length arrs ->
            strided := true;
            reads := max !reads (Array.length arrs);
            Some
              (RLeaf
                 (chain_leaf ~slot ~bases:(slot + 1) ~point dst rd arrs
                    (Array.of_list rrefs) scale))
          | _ -> None )
      | None ->
        let point =
          match compile ctx e with
          | CFRead (a, o) ->
            fun fr ->
              let v = Array.unsafe_get a (o fr) in
              Array.unsafe_set dst (off fr) v
          | (CInt _ | CIRead _) as c ->
            let f = as_int_c c in
            fun fr ->
              let v = float_of_int (f fr) in
              Array.unsafe_set dst (off fr) v
          | c ->
            let f = as_real c in
            fun fr ->
              let v = f fr in
              Array.unsafe_set dst (off fr) v
        in
        (point, None))
  in
  let rw = match row, rd with Some slot, Some rd -> Some (slot, rd) | _ -> None in
  let point, tree = go rw e in
  match rw, tree with
  | Some (slot, _), Some tree when !strided ->
    let tests = Array.of_list !tests in
    ( point,
      Some
        { rw_run = row_fn ~slot ~cuts:(slot + 1 + !reads) ~point tree tests;
          rw_scratch = !reads + (2 * Array.length tests) } )
  | _ -> (point, None)
