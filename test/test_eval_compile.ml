(* Agreement between the tree-walk evaluator and the closure compiler,
   plus semantics of every operator and builtin. *)

open Ps_sem
open Ps_interp

let t name f = Alcotest.test_case name `Quick f

(* A module providing typed names for expression tests: scalars a b
   (real), n m (int), p q (bool), array V (real, 0..9). *)
let env_module =
  {|
E: module (a: real; b: real; n: int; m: int; p: bool; q: bool;
           V: array[0 .. 9] of real): [y: real];
define
  y = a;
end E;
|}

let em =
  List.hd
    (Elab.elab_program (Ps_lang.Parser.program_of_string env_module)).Elab.ep_modules

(* Concrete bindings. *)
let slabs = Hashtbl.create 16

let () =
  let scalar name elem v =
    let s = Value.make_slab ~name ~elem ~dims:[] in
    Value.set_scalar s [||] v;
    Hashtbl.replace slabs name s
  in
  scalar "a" (Stypes.Scalar Stypes.Sreal) (Value.Sc_real 2.5);
  scalar "b" (Stypes.Scalar Stypes.Sreal) (Value.Sc_real (-0.75));
  scalar "n" (Stypes.Scalar Stypes.Sint) (Value.Sc_int 7);
  scalar "m" (Stypes.Scalar Stypes.Sint) (Value.Sc_int (-3));
  scalar "p" (Stypes.Scalar Stypes.Sbool) (Value.Sc_bool true);
  scalar "q" (Stypes.Scalar Stypes.Sbool) (Value.Sc_bool false);
  let v =
    Value.make_slab ~name:"V" ~elem:(Stypes.Scalar Stypes.Sreal)
      ~dims:[ (0, 10, 10) ]
  in
  for i = 0 to 9 do
    Value.set_scalar v [| i |] (Value.Sc_real (float_of_int (i * i) /. 4.))
  done;
  Hashtbl.replace slabs "V" v

let eval_ctx : Eval.ctx =
  { Eval.c_em = em;
    c_slab = Hashtbl.find slabs;
    c_index = (fun v -> if v = "I" then Some 3 else None);
    c_call = (fun f _ -> Alcotest.failf "unexpected call to %s" f) }

let cctx : Compile.cctx =
  { Compile.k_em = em;
    k_slab = Hashtbl.find slabs;
    k_slot = (fun v -> if v = "I" then Some 0 else None);
    k_call = (fun f _ -> Alcotest.failf "unexpected call to %s" f) }

let frame = [| 3 |]

let both src =
  let e = Ps_lang.Parser.expr_of_string src in
  let v1 = Eval.eval_scalar eval_ctx e in
  let v2 = Compile.compile_scalar cctx e frame in
  (v1, v2)

let agree src =
  let v1, v2 = both src in
  if not (Value.equal_scalar v1 v2) then
    Alcotest.failf "%s: eval %a vs compile %a" src Value.pp_scalar v1
      Value.pp_scalar v2

let eval_real src =
  match both src with
  | Value.Sc_real x, v2 ->
    if not (Value.equal_scalar (Value.Sc_real x) v2) then
      Alcotest.failf "%s disagrees" src;
    x
  | v, _ -> Alcotest.failf "%s: expected real, got %a" src Value.pp_scalar v

let eval_int_ src =
  match both src with
  | Value.Sc_int x, v2 ->
    if not (Value.equal_scalar (Value.Sc_int x) v2) then
      Alcotest.failf "%s disagrees" src;
    x
  | v, _ -> Alcotest.failf "%s: expected int, got %a" src Value.pp_scalar v

let eval_bool_ src =
  match both src with
  | Value.Sc_bool x, v2 ->
    if not (Value.equal_scalar (Value.Sc_bool x) v2) then
      Alcotest.failf "%s disagrees" src;
    x
  | v, _ -> Alcotest.failf "%s: expected bool, got %a" src Value.pp_scalar v

(* [both] with the int scalar [n] rebound; the compiler folds int
   inputs, so both engines read the new value. *)
let both_n n src =
  let s = Value.make_slab ~name:"n" ~elem:(Stypes.Scalar Stypes.Sint) ~dims:[] in
  Value.set_scalar s [||] (Value.Sc_int n);
  let slab x = if x = "n" then s else Hashtbl.find slabs x in
  let e = Ps_lang.Parser.expr_of_string src in
  ( Eval.eval_scalar { eval_ctx with Eval.c_slab = slab } e,
    Compile.compile_scalar { cctx with Compile.k_slab = slab } e frame )

let semantics_tests =
  [ t "int arithmetic" (fun () ->
        Alcotest.(check int) "n + 2*m" 1 (eval_int_ "n + 2 * m"));
    t "mixed arithmetic promotes to real" (fun () ->
        Util.checkf "a + n" 9.5 (eval_real "a + n"));
    t "real division" (fun () -> Util.checkf "n / 2" 3.5 (eval_real "n / 2"));
    t "integer division truncates" (fun () ->
        Alcotest.(check int) "7 div 2" 3 (eval_int_ "n div 2"));
    t "mod" (fun () -> Alcotest.(check int) "7 mod 2" 1 (eval_int_ "n mod 2"));
    t "unary minus int" (fun () -> Alcotest.(check int) "-n" (-7) (eval_int_ "-n"));
    t "unary minus real" (fun () -> Util.checkf "-a" (-2.5) (eval_real "-a"));
    t "comparisons mixed" (fun () ->
        Alcotest.(check bool) "n > a" true (eval_bool_ "n > a"));
    t "equality on bools" (fun () ->
        Alcotest.(check bool) "p = q" false (eval_bool_ "p = q"));
    t "and/or" (fun () ->
        Alcotest.(check bool) "p or q" true (eval_bool_ "p or q");
        Alcotest.(check bool) "p and q" false (eval_bool_ "p and q"));
    t "not" (fun () -> Alcotest.(check bool) "not q" true (eval_bool_ "not q"));
    t "if" (fun () -> Util.checkf "if" 2.5 (eval_real "if p then a else b"));
    t "if is lazy in the untaken branch" (fun () ->
        (* n div 0 would raise if evaluated. *)
        Alcotest.(check int) "guarded" 7 (eval_int_ "if p then n else n div 0"));
    t "array read with index variable" (fun () ->
        Util.checkf "V[I]" 2.25 (eval_real "V[I]"));
    t "array read with offset" (fun () ->
        Util.checkf "V[I+1]" 4.0 (eval_real "V[I + 1]"));
    t "builtins" (fun () ->
        Util.checkf "sqrt" (sqrt 2.5) (eval_real "sqrt(a)");
        Util.checkf "sin" (sin 2.5) (eval_real "sin(a)");
        Util.checkf "cos" (cos 2.5) (eval_real "cos(a)");
        Util.checkf "exp" (exp 2.5) (eval_real "exp(a)");
        Util.checkf "ln" (log 2.5) (eval_real "ln(a)"));
    t "abs on ints and reals" (fun () ->
        Alcotest.(check int) "abs m" 3 (eval_int_ "abs(m)");
        Util.checkf "abs b" 0.75 (eval_real "abs(b)"));
    t "min/max" (fun () ->
        Alcotest.(check int) "min" (-3) (eval_int_ "min(n, m)");
        Alcotest.(check int) "max" 7 (eval_int_ "max(n, m)");
        Util.checkf "real min" (-0.75) (eval_real "min(a, b)"));
    t "intpart" (fun () -> Alcotest.(check int) "intpart" 2 (eval_int_ "intpart(a)"));
    t "division by zero raises in eval" (fun () ->
        match eval_int_ "n div (n - 7)" with
        | exception Eval.Runtime_error _ -> ()
        | _ -> Alcotest.fail "expected runtime error");
    t "division by zero raises in the compiled closures too" (fun () ->
        (* [eval_int_] traps in the tree-walk engine before the closure
           runs, so the compiled seam needs its own probe. *)
        let e = Ps_lang.Parser.expr_of_string "n div (n - 7)" in
        match Compile.compile_scalar cctx e frame with
        | exception Eval.Runtime_error _ -> ()
        | _ -> Alcotest.fail "expected runtime error");
    t "a real form that cancels stays real" (fun () ->
        (* [a - a] is linear but real: lowered to the int 0, the product
           would be the int 0 instead of the real -0.0. *)
        match both "(a - a) * m" with
        | Value.Sc_real x, Value.Sc_real y ->
          Alcotest.(check int64) "bits" (Int64.bits_of_float x) (Int64.bits_of_float y);
          Alcotest.(check int64) "-0.0" (Int64.bits_of_float (-0.0)) (Int64.bits_of_float y)
        | v1, v2 ->
          Alcotest.failf "eval %a, compile %a" Value.pp_scalar v1 Value.pp_scalar v2);
    t "mod by zero raises in the compiled closures too" (fun () ->
        let e = Ps_lang.Parser.expr_of_string "n mod (n - 7)" in
        match Compile.compile_scalar cctx e frame with
        | exception Eval.Runtime_error _ -> ()
        | _ -> Alcotest.fail "expected runtime error");
    t "NaN is unordered in eval as compiled" (fun () ->
        (* sqrt(-2.5) is NaN: no ordering holds, so the else branch. *)
        Alcotest.(check int) "NaN < 1.0" 0
          (eval_int_ "if sqrt(a - 5.0) < 1.0 then 1 else 0"));
    t "ints past 2^53 compare as ints" (fun () ->
        (* As floats, 2^53 and 2^53 + 1 round to the same value. *)
        match both_n (1 lsl 53) "if n = n + 1 then 1 else 0" with
        | Value.Sc_int 0, Value.Sc_int 0 -> ()
        | v1, v2 ->
          Alcotest.failf "eval %a, compile %a" Value.pp_scalar v1 Value.pp_scalar v2);
    t "a mixed int/real if is real" (fun () ->
        (* The taken branch is the int m = -3: as a real, -3.0 * 0 is
           -0.0, where the int product is 0. *)
        match both "(if n > 0 then m else a) * 0" with
        | Value.Sc_real x, Value.Sc_real y ->
          Alcotest.(check int64) "bits" (Int64.bits_of_float x) (Int64.bits_of_float y);
          Alcotest.(check int64) "-0.0" (Int64.bits_of_float (-0.0)) (Int64.bits_of_float y)
        | v1, v2 ->
          Alcotest.failf "eval %a, compile %a" Value.pp_scalar v1 Value.pp_scalar v2);
    t "a mixed if's int branch does not wrap" (fun () ->
        (* As an int product this wraps modulo 2^63. *)
        Util.checkf ~eps:0.0 "product" (4611686018427387.0 *. 3001.0)
          (eval_real "(if n > 0 then 4611686018427387 else a) * 3001")) ]

let bounds_tests =
  [ t "out-of-range read raises with checking on" (fun () ->
        match eval_real "V[10]" with
        | exception Value.Bounds _ -> ()
        | _ -> Alcotest.fail "expected bounds error");
    t "compiled read also checks" (fun () ->
        let e = Ps_lang.Parser.expr_of_string "V[I + 20]" in
        let f = Compile.compile_real cctx e in
        match f frame with
        | exception Value.Bounds _ -> ()
        | _ -> Alcotest.fail "expected bounds error") ]

(* qcheck: random expressions evaluate identically in both engines. *)
let gen_expr : Ps_lang.Ast.expr QCheck.Gen.t =
  let open QCheck.Gen in
  let open Ps_lang.Ast in
  let leaf =
    oneof
      [ (int_range (-20) 20 >|= int_e);
        (float_range (-4.0) 4.0 >|= fun f -> mk (Real f));
        oneofl [ var_e "a"; var_e "b"; var_e "n"; var_e "m" ];
        (int_range 0 9 >|= fun i -> mk (Index (var_e "V", [ int_e i ]))) ]
  in
  let cond_leaf = oneofl [ var_e "p"; var_e "q" ] in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        let sub = self (depth - 1) in
        oneof
          [ leaf;
            (map2 (fun x y -> mk (Binop (Add, x, y))) sub sub);
            (map2 (fun x y -> mk (Binop (Sub, x, y))) sub sub);
            (map2 (fun x y -> mk (Binop (Mul, x, y))) sub sub);
            (map (fun x -> mk (Unop (Neg, x))) sub);
            (map (fun x -> mk (Call ("abs", [ x ]))) sub);
            (map2 (fun x y -> mk (Call ("min", [ x; y ]))) sub sub);
            (map2 (fun x y -> mk (Call ("max", [ x; y ]))) sub sub);
            (map3
               (fun c x y -> mk (If (c, x, y)))
               (map2 (fun x y -> mk (Binop (Lt, x, y))) sub sub)
               sub sub);
            (map3 (fun c x y -> mk (If (c, x, y))) cond_leaf sub sub) ])
    4

let agreement_prop =
  QCheck.Test.make ~count:1000 ~name:"eval and compile agree"
    (QCheck.make gen_expr ~print:Ps_lang.Pretty.expr_to_string)
    (fun e ->
      let v1 = Eval.eval_scalar eval_ctx e in
      let v2 = Compile.compile_scalar cctx e frame in
      Value.equal_scalar v1 v2)

(* The shapes the closure compiler fuses: a 3-D real slab whose first
   dimension is a 2-plane window, a 2-D int slab, three frame slots and
   the int inputs [n] and [m] (folded at compile time), read through
   random affine subscripts, in left-deep and scaled sums, and/or
   guards, min/max, mixed int/real arithmetic and [if]s, and comparisons
   of NaN, the infinities and numbers about 2^53. *)
let shape_module =
  {|
S: module (n: int; m: int; a: real;
           R: array[0 .. 5, 1 .. 4, 0 .. 3] of real;
           Z: array[0 .. 3, 0 .. 4] of int): [y: real];
define
  y = a;
end S;
|}

let shape_em =
  List.hd
    (Elab.elab_program (Ps_lang.Parser.program_of_string shape_module)).Elab.ep_modules

let shape_slabs =
  let tbl = Hashtbl.create 8 in
  let scalar name elem v =
    let s = Value.make_slab ~name ~elem ~dims:[] in
    Value.set_scalar s [||] v;
    Hashtbl.replace tbl name s
  in
  scalar "n" (Stypes.Scalar Stypes.Sint) (Value.Sc_int 2);
  scalar "m" (Stypes.Scalar Stypes.Sint) (Value.Sc_int (-1));
  scalar "a" (Stypes.Scalar Stypes.Sreal) (Value.Sc_real 0.3);
  let r =
    Value.make_slab ~name:"R" ~elem:(Stypes.Scalar Stypes.Sreal)
      ~dims:[ (0, 6, 2); (1, 4, 4); (0, 4, 4) ]
  in
  (match r.Value.s_data with
   | Value.PFloat d -> Array.iteri (fun i _ -> d.(i) <- 0.1 *. float_of_int (i + 1)) d
   | _ -> assert false);
  let z =
    Value.make_slab ~name:"Z" ~elem:(Stypes.Scalar Stypes.Sint)
      ~dims:[ (0, 4, 4); (0, 5, 5) ]
  in
  (match z.Value.s_data with
   | Value.PInt d -> Array.iteri (fun i _ -> d.(i) <- (i * 7 mod 11) - 5) d
   | _ -> assert false);
  Hashtbl.replace tbl "R" r;
  Hashtbl.replace tbl "Z" z;
  tbl

let slot = function "I" -> Some 0 | "J" -> Some 1 | "K" -> Some 2 | _ -> None

let shape_eval fr : Eval.ctx =
  { Eval.c_em = shape_em;
    c_slab = Hashtbl.find shape_slabs;
    c_index = (fun v -> Option.map (fun s -> fr.(s)) (slot v));
    c_call = (fun f _ -> Alcotest.failf "unexpected call to %s" f) }

let shape_cctx : Compile.cctx =
  { Compile.k_em = shape_em;
    k_slab = Hashtbl.find shape_slabs;
    k_slot = slot;
    k_call = (fun f _ -> Alcotest.failf "unexpected call to %s" f) }

let gen_shape : Ps_lang.Ast.expr QCheck.Gen.t =
  let open QCheck.Gen in
  let open Ps_lang.Ast in
  let bin op x y = mk (Binop (op, x, y)) in
  (* c + Σ k·v over the slots and the inputs, k in -2..2, terms added or
     subtracted, the constant first or last. *)
  let aff =
    let term =
      map2
        (fun k v -> if k = 1 then var_e v else bin Mul (int_e k) (var_e v))
        (int_range (-2) 2)
        (oneofl [ "I"; "J"; "K"; "I"; "J"; "K"; "n"; "m" ])
    in
    map3
      (fun terms c c_first ->
        let body =
          List.fold_left
            (fun acc (t, add) -> bin (if add then Add else Sub) acc t)
            (if c_first then int_e c else fst (List.hd terms))
            (if c_first then terms else List.tl terms)
        in
        if c_first || c = 0 then body else bin Add body (int_e c))
      (list_size (int_range 1 3) (pair term bool))
      (int_range (-3) 4) bool
  in
  (* Mostly stencil subscripts ([J - 1]), so most reads land in range. *)
  let sub =
    frequency
      [ (3, map2 (fun v c -> Ps_lang.Ast.add_offset (var_e v) c) (oneofl [ "I"; "J"; "K" ])
             (int_range (-1) 1));
        (1, aff) ]
  in
  let rread = map3 (fun i j k -> mk (Index (var_e "R", [ i; j; k ]))) sub sub sub in
  let iread = map2 (fun i j -> mk (Index (var_e "Z", [ i; j ]))) sub sub in
  let chain =
    map2
      (fun reads scale ->
        let sum = List.fold_left (bin Add) (List.hd reads) (List.tl reads) in
        match scale with
        | 0 -> sum
        | 1 -> bin Div sum (int_e 4)
        | 2 -> bin Mul sum (mk (Real 0.25))
        | _ -> bin Div sum (var_e "n"))
      (list_size (int_range 2 4) rread)
      (int_range 0 3)
  in
  let cmp = oneofl [ Eq; Ne; Lt; Le; Gt; Ge ] in
  (* Ints about 2^53, where comparing as floats would round. *)
  let near_2_53 = int_range (-2) 2 >|= fun k -> (1 lsl 53) + k in
  let big_aff = map2 (fun k a -> bin Add (int_e k) a) near_2_53 aff in
  let guard =
    map2
      (fun op tests -> List.fold_left (bin op) (List.hd tests) (List.tl tests))
      (oneofl [ And; Or ])
      (list_size (int_range 1 4)
         (frequency [ (3, map3 bin cmp aff aff); (1, map3 bin cmp big_aff big_aff) ]))
  in
  (* Comparison operands at the edges: NaN, the infinities, and ints and
     reals about 2^53. *)
  let edge =
    frequency
      [ (1, oneofl (List.map (fun f -> mk (Real f)) [ Float.nan; Float.infinity; Float.neg_infinity ]));
        (1, return (mk (Call ("sqrt", [ bin Sub (var_e "a") (mk (Real 5.0)) ]))));
        (1, map int_e near_2_53);
        (1, map (fun k -> mk (Real (Float.of_int k))) near_2_53) ]
  in
  let ints =
    fix
      (fun self depth ->
        let leaf = frequency [ (2, iread); (2, aff) ] in
        if depth = 0 then leaf
        else
          let sub = self (depth - 1) in
          frequency
            [ (2, leaf);
              (1, map3 bin (oneofl [ Add; Sub; Mul ]) sub sub);
              (1, map3 (fun f x y -> mk (Call (f, [ x; y ]))) (oneofl [ "min"; "max" ]) sub sub);
              (2, map3 (fun c x y -> mk (If (c, x, y))) guard sub sub) ])
      2
  in
  let reals =
    fix
      (fun self depth ->
        let leaf =
          frequency
            [ (4, rread); (1, float_range (-2.0) 2.0 >|= fun f -> mk (Real f));
              (1, return (var_e "a")) ]
        in
        if depth = 0 then frequency [ (3, leaf); (2, chain) ]
        else
          let sub = self (depth - 1) in
          let arith = oneofl [ Add; Sub; Mul ] in
          frequency
            [ (2, leaf); (3, chain);
              (2, map3 bin arith sub sub);
              (1, map3 bin arith sub ints);
              (1, map3 bin arith ints sub);
              (1, map2 (fun x k -> bin Div x (int_e k)) sub (int_range 1 4));
              (1, map3 (fun f x y -> mk (Call (f, [ x; y ]))) (oneofl [ "min"; "max" ]) sub sub);
              (1, map2 (fun x y -> mk (Call ("min", [ x; y ]))) sub ints);
              (3, map3 (fun c x y -> mk (If (c, x, y))) guard sub sub);
              (1, map3 (fun c x y -> mk (If (c, x, y))) guard sub ints);
              (1, map3 (fun c x y -> mk (If (c, x, y))) guard ints sub);
              (1, map3 (fun c x y -> mk (If (c, x, y))) (map3 bin cmp sub sub) sub sub);
              (1,
               map3
                 (fun c x y -> mk (If (c, x, y)))
                 (map3 bin cmp (frequency [ (1, sub); (1, edge) ]) edge)
                 sub sub) ])
      3
  in
  frequency [ (4, reals); (1, ints); (1, guard) ]

let gen_frame = QCheck.Gen.(array_size (return 3) (int_range 0 4))

(* Same value, bit for bit: numbers compare as ints when both are, and
   by their IEEE bits otherwise. *)
let same_bits (x : Value.scalar) (y : Value.scalar) =
  match x, y with
  | Value.Sc_int a, Value.Sc_int b -> a = b
  | Value.Sc_bool a, Value.Sc_bool b -> a = b
  | (Value.Sc_int _ | Value.Sc_real _), (Value.Sc_int _ | Value.Sc_real _) ->
    Int64.equal
      (Int64.bits_of_float (Value.as_float x))
      (Int64.bits_of_float (Value.as_float y))
  | _ -> false

let outcome f = match f () with v -> Ok v | exception Value.Bounds m -> Error m

let shape_print (e, fr) =
  Printf.sprintf "%s at I,J,K = %d,%d,%d" (Ps_lang.Pretty.expr_to_string e) fr.(0)
    fr.(1) fr.(2)

let real_slab name dims =
  Value.make_slab ~name ~elem:(Stypes.Scalar Stypes.Sreal) ~dims

(* The fused real store against [Eval]'s value: a real equation's
   writer. *)
let stored e fr =
  let d = real_slab "D" [] in
  fst (Compile.compile_store_real shape_cctx d [] e) fr;
  Value.get_scalar d [||]

let is_bool e =
  match Compile.compile shape_cctx e with Compile.CBool _ -> true | _ -> false

let shape_prop =
  QCheck.Test.make ~count:3000 ~name:"compiled shapes agree with eval bit for bit"
    (QCheck.make (QCheck.Gen.pair gen_shape gen_frame) ~print:shape_print)
    (fun (e, fr) ->
      let reference = outcome (fun () -> Eval.eval_scalar (shape_eval fr) e) in
      let agrees = function
        | Ok v -> (match reference with Ok r -> same_bits r v | Error _ -> false)
        | Error m -> reference = Error m
      in
      let compiled = outcome (fun () -> Compile.compile_scalar shape_cctx e fr) in
      let store = if is_bool e then [] else [ outcome (fun () -> stored e fr) ] in
      List.for_all agrees (compiled :: store))

(* [D[K] = e] over a row K = lo .. hi at the frame's I and J, against
   [Eval] point by point: the same bits at every point before the first
   trap, and the same trap.  Row ends past D's range 0..4 make the
   destination check fail too; R's first dimension is windowed, so a
   read that K indexes there has no row form.  K has the last slot, so
   the row's scratch slots follow it. *)
let row_print (e, fr, (lo, hi)) = Printf.sprintf "%s, K = %d .. %d" (shape_print (e, fr)) lo hi

(* Row-shaped right-hand sides: [if] trees over tests of [k * K + I]
   against a constant (a few near [max_int], whose sides wrap), and
   leaves that are constants, int reads, or chains of real reads that K
   walks forwards, backwards, or along R's windowed first dimension. *)
let gen_row_rhs : Ps_lang.Ast.expr QCheck.Gen.t =
  let open QCheck.Gen in
  let open Ps_lang.Ast in
  let bin op x y = mk (Binop (op, x, y)) in
  let v x c = add_offset (var_e x) c in
  let r subs = mk (Index (var_e "R", subs)) in
  let read =
    frequency
      [ (3, map2 (fun c d -> r [ v "I" 0; v "K" c; v "J" d ]) (int_range 0 2) (int_range (-1) 1));
        (2, map2 (fun c d -> r [ v "J" 0; bin Sub (int_e c) (var_e "K"); v "I" d ])
             (int_range 3 6) (int_range (-1) 1));
        (2, map (fun c -> r [ v "I" 0; v "J" 1; v "K" c ]) (int_range (-1) 1));
        (1, map (fun c -> r [ v "K" c; v "I" 1; v "J" 0 ]) (int_range (-1) 1)) ]
  in
  let chain =
    map2
      (fun reads scale ->
        let sum = List.fold_left (bin Add) (List.hd reads) (List.tl reads) in
        match scale with 0 -> sum | 1 -> bin Div sum (int_e 4) | _ -> bin Mul sum (mk (Real 0.5)))
      (list_size (int_range 1 4) read)
      (int_range 0 2)
  in
  let leaf =
    frequency
      [ (4, chain); (1, float_range (-2.0) 2.0 >|= fun f -> mk (Real f));
        (1, return (mk (Index (var_e "Z", [ v "I" 0; v "K" 0 ])))) ]
  in
  let side =
    frequency
      [ (4, map2 (fun k c -> bin Add (bin Mul (int_e k) (var_e "K")) (v "I" c))
             (int_range (-2) 2) (int_range (-1) 3));
        (1, map (fun c -> bin Add (var_e "K") (int_e (max_int - c))) (int_range 0 3)) ]
  in
  let test =
    map3 (fun op l c -> bin op l (int_e c)) (oneofl [ Eq; Ne; Lt; Le; Gt; Ge ]) side
      (frequency [ (4, int_range (-2) 6); (1, return max_int) ])
  in
  let guard =
    map2
      (fun op tests -> List.fold_left (bin op) (List.hd tests) (List.tl tests))
      (oneofl [ And; Or ]) (list_size (int_range 1 3) test)
  in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        frequency
          [ (1, leaf); (2, map3 (fun c x y -> mk (If (c, x, y))) guard (self (depth - 1)) (self (depth - 1))) ])
    2

let row_prop =
  QCheck.Test.make ~count:5000 ~name:"compiled rows agree with eval point by point"
    (QCheck.make
       QCheck.Gen.(
         triple (frequency [ (3, gen_row_rhs); (1, gen_shape) ]) gen_frame
           (frequency
              [ (1, pair (int_range (-1) 4) (int_range (-1) 5));
                (2, pair (int_range 0 2) (int_range 2 4)) ]))
       ~print:row_print)
    (fun (e, fr, (lo, hi)) ->
      is_bool e
      ||
      let values = ref [] in
      let rec reference j =
        if j > hi then Ok ()
        else begin
          fr.(2) <- j;
          match Eval.eval_scalar (shape_eval fr) e with
          | exception Value.Bounds m -> Error m
          | _ when j < 0 || j > 4 -> Error (Printf.sprintf "D: subscript 1 = %d outside 0..4" j)
          | v ->
            values := (j, Value.as_float v) :: !values;
            reference (j + 1)
        end
      in
      let reference = reference lo in
      let dst = real_slab "D" [ (0, 5, 5) ] in
      let point, row =
        Compile.compile_store_real ~row:2 shape_cctx dst [ Ps_lang.Ast.var_e "K" ] e
      in
      let scratch = match row with Some r -> r.Compile.rw_scratch | None -> 0 in
      let frame = Array.append fr (Array.make scratch 0) in
      let run () =
        match row with
        | Some r -> r.Compile.rw_run frame lo hi
        | None ->
          for j = lo to hi do
            frame.(2) <- j;
            point frame
          done
      in
      let bits x = Int64.bits_of_float x in
      let got = outcome run in
      let show = function Ok () -> "ok" | Error m -> m in
      if got <> reference then
        QCheck.Test.fail_reportf "row: %s, points: %s" (show got) (show reference);
      List.for_all
        (fun (j, v) ->
          Int64.equal (bits v) (bits (Value.as_float (Value.get_scalar dst [| j |])))
          || QCheck.Test.fail_reportf "K = %d: row %h, point %h" j
               (Value.as_float (Value.get_scalar dst [| j |])) v)
        !values)

let misc = [ t "agree on a deep mixed expression" (fun () ->
    agree "if V[I] < a * 2.0 then min(n, 3) + V[I + 2] else abs(m) / 2") ]

let () =
  Alcotest.run "eval_compile"
    [ ("semantics", semantics_tests);
      ("bounds", bounds_tests);
      ("agreement",
       QCheck_alcotest.to_alcotest agreement_prop
       :: QCheck_alcotest.to_alcotest shape_prop
       :: QCheck_alcotest.to_alcotest row_prop
       :: misc) ]
