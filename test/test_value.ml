(* Store tests: slab layout, strides, virtual-dimension windows, bounds
   checks, scalar conversions, slices. *)

open Ps_sem
open Ps_interp.Value

let t name f = Alcotest.test_case name `Quick f

let real = Stypes.Scalar Stypes.Sreal

let int_ty = Stypes.Scalar Stypes.Sint

let layout_tests =
  [ t "scalar slab has one word" (fun () ->
        let s = make_slab ~name:"x" ~elem:real ~dims:[] in
        Alcotest.(check int) "words" 1 (allocated_words s);
        Alcotest.(check int) "ndims" 0 (ndims s));
    t "full 2-D slab" (fun () ->
        let s = make_slab ~name:"a" ~elem:real ~dims:[ (0, 4, 4); (1, 6, 6) ] in
        Alcotest.(check int) "words" 24 (allocated_words s);
        Alcotest.(check (array int)) "strides" [| 6; 1 |] s.s_strides);
    t "row-major order" (fun () ->
        let s = make_slab ~name:"a" ~elem:real ~dims:[ (0, 3, 3); (0, 5, 5) ] in
        Alcotest.(check int) "offset (1,2)" 7 (offset s [| 1; 2 |]));
    t "non-zero lower bounds" (fun () ->
        let s = make_slab ~name:"a" ~elem:real ~dims:[ (3, 4, 4) ] in
        Alcotest.(check int) "offset lo" 0 (offset s [| 3 |]);
        Alcotest.(check int) "offset hi" 3 (offset s [| 6 |]));
    t "windowed dimension wraps" (fun () ->
        let s = make_slab ~name:"a" ~elem:real ~dims:[ (1, 10, 2); (0, 3, 3) ] in
        Alcotest.(check int) "words" 6 (allocated_words s);
        (* planes 1 and 3 share slot 0; 2 and 4 share slot 1 *)
        Alcotest.(check int) "plane 1" (offset s [| 1; 0 |]) (offset s [| 3; 0 |]);
        Alcotest.(check int) "plane 2" (offset s [| 2; 0 |]) (offset s [| 4; 0 |]);
        Alcotest.(check bool) "1 <> 2" true
          (offset s [| 1; 0 |] <> offset s [| 2; 0 |]));
    t "window of 3" (fun () ->
        let s = make_slab ~name:"a" ~elem:real ~dims:[ (2, 20, 3) ] in
        Alcotest.(check int) "words" 3 (allocated_words s);
        Alcotest.(check int) "wraps at 3" (offset s [| 2 |]) (offset s [| 5 |]));
    t "window offset below the lower bound is euclidean" (fun () ->
        (* A guarded read of A[I - c] near the loop's first iteration can
           address below the dimension's declared lower bound; with a
           truncating remainder the slot would go negative and index
           outside the slab.  Regression for the euclidean wrap. *)
        let s = make_slab ~name:"a" ~elem:real ~dims:[ (1, 10, 3) ] in
        let o = offset s [| 0 |] in
        Alcotest.(check bool) "slot stays in [0, w)" true (o >= 0 && o < 3);
        Alcotest.(check int) "plane 0 aliases plane 3" (offset s [| 3 |]) o;
        Alcotest.(check int) "plane -2 aliases plane 1"
          (offset s [| 1 |])
          (offset s [| -2 |]));
    t "iter_box visits the declared box in row-major order" (fun () ->
        let visits dims =
          let seen = ref [] in
          iter_box (make_slab ~name:"a" ~elem:real ~dims) (fun ix ->
              seen := Array.copy ix :: !seen);
          List.rev !seen
        in
        Alcotest.(check (list (array int)))
          "2 x 3 from (1, 0)"
          [ [| 1; 0 |]; [| 1; 1 |]; [| 1; 2 |]; [| 2; 0 |]; [| 2; 1 |]; [| 2; 2 |] ]
          (visits [ (1, 2, 2); (0, 3, 3) ]);
        (* Row-major is ascending lexicographic order; a window does not
           shrink the declared box. *)
        let v = visits [ (0, 4, 2); (-1, 2, 2); (3, 5, 5) ] in
        Alcotest.(check int) "product of the extents" (4 * 2 * 5) (List.length v);
        Alcotest.(check (list (array int))) "ascending, no repeats" (List.sort_uniq compare v) v;
        Alcotest.(check (list (array int))) "an empty extent" [] (visits [ (0, 3, 3); (0, 0, 0) ]);
        Alcotest.(check (list (array int))) "rank 0 is one point" [ [||] ] (visits [])) ]

let rw_tests =
  [ t "write then read a float" (fun () ->
        let s = make_slab ~name:"a" ~elem:real ~dims:[ (0, 5, 5) ] in
        set_scalar s [| 3 |] (Sc_real 2.5);
        Alcotest.(check bool) "read back" true
          (equal_scalar (Sc_real 2.5) (get_scalar s [| 3 |])));
    t "int slab" (fun () ->
        let s = make_slab ~name:"n" ~elem:int_ty ~dims:[ (0, 4, 4) ] in
        set_scalar s [| 2 |] (Sc_int (-7));
        Alcotest.(check bool) "read back" true
          (equal_scalar (Sc_int (-7)) (get_scalar s [| 2 |])));
    t "bool slab" (fun () ->
        let s = make_slab ~name:"b" ~elem:(Stypes.Scalar Stypes.Sbool) ~dims:[ (0, 3, 3) ] in
        set_scalar s [| 1 |] (Sc_bool true);
        Alcotest.(check bool) "true" true
          (equal_scalar (Sc_bool true) (get_scalar s [| 1 |]));
        Alcotest.(check bool) "default false" true
          (equal_scalar (Sc_bool false) (get_scalar s [| 0 |])));
    t "enum slab stores ordinals" (fun () ->
        let s =
          make_slab ~name:"e" ~elem:(Stypes.Scalar (Stypes.Senum "Kind"))
            ~dims:[ (0, 2, 2) ]
        in
        set_scalar s [| 1 |] (Sc_enum ("Kind", 2));
        (match get_scalar s [| 1 |] with
         | Sc_enum ("Kind", 2) -> ()
         | v -> Alcotest.failf "got %a" pp_scalar v));
    t "record slab" (fun () ->
        let s =
          make_slab ~name:"r"
            ~elem:(Stypes.Record [ ("x", real); ("y", real) ])
            ~dims:[ (0, 2, 2) ]
        in
        set_scalar s [| 0 |] (Sc_record [ ("x", Sc_real 1.0); ("y", Sc_real 2.0) ]);
        match get_scalar s [| 0 |] with
        | Sc_record [ ("x", Sc_real 1.0); ("y", Sc_real 2.0) ] -> ()
        | v -> Alcotest.failf "got %a" pp_scalar v);
    t "windowed write overwrites the stale plane" (fun () ->
        let s = make_slab ~name:"a" ~elem:real ~dims:[ (1, 10, 2) ] in
        set_scalar s [| 1 |] (Sc_real 1.0);
        set_scalar s [| 2 |] (Sc_real 2.0);
        set_scalar s [| 3 |] (Sc_real 3.0);
        (* plane 1's slot now holds plane 3 *)
        Alcotest.(check bool) "plane 3" true
          (equal_scalar (Sc_real 3.0) (get_scalar s [| 3 |]));
        Alcotest.(check bool) "plane 2 intact" true
          (equal_scalar (Sc_real 2.0) (get_scalar s [| 2 |]))) ]

let bounds_tests =
  [ t "below lower bound" (fun () ->
        let s = make_slab ~name:"a" ~elem:real ~dims:[ (2, 5, 5) ] in
        match check_bounds s [| 1 |] with
        | exception Bounds _ -> ()
        | () -> Alcotest.fail "expected Bounds");
    t "above upper bound" (fun () ->
        let s = make_slab ~name:"a" ~elem:real ~dims:[ (2, 5, 5) ] in
        match check_bounds s [| 7 |] with
        | exception Bounds _ -> ()
        | () -> Alcotest.fail "expected Bounds");
    t "wrong arity" (fun () ->
        let s = make_slab ~name:"a" ~elem:real ~dims:[ (0, 5, 5) ] in
        match check_bounds s [| 1; 2 |] with
        | exception Bounds _ -> ()
        | () -> Alcotest.fail "expected Bounds");
    t "in-range passes" (fun () ->
        let s = make_slab ~name:"a" ~elem:real ~dims:[ (2, 5, 5) ] in
        check_bounds s [| 2 |];
        check_bounds s [| 6 |]);
    t "bounds message names the slab and range" (fun () ->
        let s = make_slab ~name:"Grid" ~elem:real ~dims:[ (0, 5, 5) ] in
        match check_bounds s [| 9 |] with
        | exception Bounds m ->
          Alcotest.(check bool) "names slab" true (Util.contains m "Grid");
          Alcotest.(check bool) "shows range" true (Util.contains m "0..4")
        | () -> Alcotest.fail "expected Bounds") ]

let conversion_tests =
  [ t "as_float coerces ints" (fun () -> Util.checkf "7" 7.0 (as_float (Sc_int 7)));
    t "as_int truncates reals" (fun () ->
        Alcotest.(check int) "3" 3 (as_int (Sc_real 3.9)));
    t "numeric equality across kinds" (fun () ->
        Alcotest.(check bool) "3 = 3.0" true (equal_scalar (Sc_int 3) (Sc_real 3.0)));
    t "bool and int are not equal" (fun () ->
        Alcotest.(check bool) "distinct" false
          (equal_scalar (Sc_bool true) (Sc_int 1)));
    t "as_bool rejects numbers" (fun () ->
        match as_bool (Sc_int 1) with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected failure") ]

let slice_prop =
  (* Slicing a random 2-D slab yields rows with the original contents. *)
  QCheck.Test.make ~count:100 ~name:"slice extracts a row"
    QCheck.(pair (int_range 1 6) (int_range 1 6))
    (fun (rows, cols) ->
      let s =
        make_slab ~name:"a" ~elem:real ~dims:[ (0, rows, rows); (0, cols, cols) ]
      in
      for i = 0 to rows - 1 do
        for j = 0 to cols - 1 do
          set_scalar s [| i; j |] (Sc_real (float_of_int ((i * 100) + j)))
        done
      done;
      let row = rows / 2 in
      let slice = Ps_interp.Eval.slice_slab s [| row |] in
      let ok = ref true in
      for j = 0 to cols - 1 do
        if
          not
            (equal_scalar (get_scalar slice [| j |])
               (Sc_real (float_of_int ((row * 100) + j))))
        then ok := false
      done;
      !ok && ndims slice = 1)

let () =
  Alcotest.run "value"
    [ ("layout", layout_tests);
      ("read/write", rw_tests);
      ("bounds", bounds_tests);
      ("conversions", conversion_tests);
      ("slices", [ QCheck_alcotest.to_alcotest slice_prop ]) ]
