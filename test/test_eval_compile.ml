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
    c_call = (fun f _ -> Alcotest.failf "unexpected call to %s" f);
    c_check = true }

let cctx : Compile.cctx =
  { Compile.k_em = em;
    k_slab = Hashtbl.find slabs;
    k_slot = (fun v -> if v = "I" then Some 0 else None);
    k_call = (fun f _ -> Alcotest.failf "unexpected call to %s" f);
    k_check = true }

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
        | _ -> Alcotest.fail "expected runtime error") ]

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
        | _ -> Alcotest.fail "expected bounds error");
    t "unchecked context skips the test" (fun () ->
        (* V[10] maps one element past the window; with check = false the
           offset computation is performed anyway.  We only verify no
           Bounds exception escapes for an in-allocation offset. *)
        let ctx = { cctx with Compile.k_check = false } in
        let e = Ps_lang.Parser.expr_of_string "V[9]" in
        ignore ((Compile.compile_real ctx e) frame)) ]

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
   guards, min/max and mixed int/real arithmetic. *)
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
    c_call = (fun f _ -> Alcotest.failf "unexpected call to %s" f);
    c_check = true }

let shape_cctx check : Compile.cctx =
  { Compile.k_em = shape_em;
    k_slab = Hashtbl.find shape_slabs;
    k_slot = slot;
    k_call = (fun f _ -> Alcotest.failf "unexpected call to %s" f);
    k_check = check }

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
  let guard =
    map2
      (fun op tests -> List.fold_left (bin op) (List.hd tests) (List.tl tests))
      (oneofl [ And; Or ])
      (list_size (int_range 1 4) (map3 bin cmp aff aff))
  in
  (* Both branches of an [if] have one type: [Eval] returns a branch's
     value with that branch's own type, where the compiled [if] takes
     the expression's static type. *)
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
              (1, map3 (fun c x y -> mk (If (c, x, y))) (map3 bin cmp sub sub) sub sub) ])
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

(* The fused real store against [Eval]'s value: a real equation's
   writer. *)
let stored check e fr =
  let dst = [| nan |] in
  Compile.compile_store_real (shape_cctx check) e dst (fun _ -> 0) fr;
  Value.Sc_real dst.(0)

let is_bool e =
  match Compile.compile (shape_cctx true) e with Compile.CBool _ -> true | _ -> false

let shape_prop =
  QCheck.Test.make ~count:3000 ~name:"compiled shapes agree with eval bit for bit"
    (QCheck.make (QCheck.Gen.pair gen_shape gen_frame) ~print:shape_print)
    (fun (e, fr) ->
      let reference = outcome (fun () -> Eval.eval_scalar (shape_eval fr) e) in
      let agrees = function
        | Ok v -> (match reference with Ok r -> same_bits r v | Error _ -> false)
        | Error m -> reference = Error m
      in
      let checked = outcome (fun () -> Compile.compile_scalar (shape_cctx true) e fr) in
      let store = if is_bool e then [] else [ outcome (fun () -> stored true e fr) ] in
      (* Unchecked, only frames whose reads all land in range. *)
      let unchecked =
        match reference with
        | Error _ -> []
        | Ok _ ->
          outcome (fun () -> Compile.compile_scalar (shape_cctx false) e fr)
          :: (if is_bool e then [] else [ outcome (fun () -> stored false e fr) ])
      in
      List.for_all agrees ((checked :: store) @ unchecked))

let misc = [ t "agree on a deep mixed expression" (fun () ->
    agree "if V[I] < a * 2.0 then min(n, 3) + V[I + 2] else abs(m) / 2") ]

let () =
  Alcotest.run "eval_compile"
    [ ("semantics", semantics_tests);
      ("bounds", bounds_tests);
      ("agreement",
       QCheck_alcotest.to_alcotest agreement_prop
       :: QCheck_alcotest.to_alcotest shape_prop
       :: misc) ]
