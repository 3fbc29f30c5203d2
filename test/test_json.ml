(* The shared JSON module: the parser on malformed and escaped input,
   the writers' escaping, and every JSON writer in the tree read back
   through the one parser. *)

let t name f = Alcotest.test_case name `Quick f

module Json = Psc.Json

let parses (text, want) =
  if Json.parse text <> want then Alcotest.failf "%S parsed to another value" text

let rejects text =
  match Json.parse text with
  | _ -> Alcotest.failf "%S parsed" text
  | exception Json.Parse_error _ -> ()

(* Every byte class the escaper distinguishes: the two-character
   escapes, other control characters, and non-ASCII UTF-8. *)
let awkward = "q\"uote \\back /slash\nnl\ttab\rcr\001\031ctl caf\xc3\xa9 \xe2\x82\xac"

let member_str k j = Option.get (Json.member_str k j)

let check_str = Alcotest.(check string)

let parser_tests =
  [ t "malformed numbers are parse errors" (fun () ->
        List.iter rejects
          [ "-"; "1e"; "1.2.3"; "+"; "."; "--1"; "e5"; "1e-"; "[1,1e]";
            {|{"id":1,"op":"stats","x":-}|} ]);
    t "numbers that parsed before still parse" (fun () ->
        List.iter
          (fun (text, f) -> parses (text, Json.Num f))
          [ ("0", 0.); ("-0", -0.); ("+1", 1.); ("1.", 1.); (".5", 0.5);
            ("1E+5", 1e5); ("-2.5e-3", -2.5e-3); ("00012", 12.) ]);
    t "\\u escapes decode to UTF-8, surrogate pairs included" (fun () ->
        List.iter
          (fun (text, s) -> parses ({|"|} ^ text ^ {|"|}, Json.Str s))
          [ ({|\u0041|}, "A"); ({|caf\u00e9|}, "caf\xc3\xa9");
            ({|caf\u00E9|}, "caf\xc3\xa9"); ({|\u20ac|}, "\xe2\x82\xac");
            ({|\ud83d\ude00|}, "\xf0\x9f\x98\x80"); ({|a\u0000b|}, "a\000b");
            ({|\b\f\/|}, "\b\012/") ]);
    t "a lone surrogate or a bad \\u escape is a parse error" (fun () ->
        List.iter rejects
          [ {|"\ud83d"|}; {|"\ud83dx"|}; {|"\ude00"|}; {|"\ud83dA"|};
            {|"\u12g4"|}; {|"\u12"|}; {|"\u+123"|} ]);
    t "structure, whitespace and trailing garbage" (fun () ->
        parses
          ( {| { "a" : [ 1 , true , null ] , "b" : { } } |},
            Json.(Obj [ ("a", Arr [ Num 1.; Bool true; Null ]); ("b", Obj []) ]) );
        List.iter rejects
          [ ""; "{"; "[1,]"; {|{"a"}|}; {|"open|}; "tru"; "{} x"; {|"\q"|} ]) ]

(* The escape table, one byte at a time: the two-character escapes,
   \u00XX for the other control characters, every other byte
   verbatim. *)
let escaped s =
  let b = Buffer.create 16 in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b {|\"|}
      | '\\' -> Buffer.add_string b {|\\|}
      | '\n' -> Buffer.add_string b {|\n|}
      | '\t' -> Buffer.add_string b {|\t|}
      | '\r' -> Buffer.add_string b {|\r|}
      | c when c < ' ' -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Strings of up to 64 bytes drawn from all 256 byte values. *)
let any_bytes =
  QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 64))

let writer_tests =
  [ t "writers render the exact shapes" (fun () ->
        check_str "empty" "{}[]" (Json.obj [] ^ Json.arr []);
        check_str "obj" {|{"a":1,"b":[true,false],"c":""}|}
          (Json.obj
             [ ("a", Json.int 1); ("b", Json.arr [ Json.bool true; Json.bool false ]);
               ("c", Json.str "") ]);
        check_str "escapes" "\"q\\\"\\\\\\n\\t\\r\\u0001\\u001f\\u0008/\xc3\xa9\""
          (Json.str "q\"\\\n\t\r\001\031\b/\xc3\xa9");
        check_str "escaped key" {|{"k\"":null}|} (Json.obj [ ("k\"", "null") ]);
        let all = String.init 256 Char.chr in
        check_str "bytes 0-255" (escaped all) (Json.str all));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:1000 ~name:"str escapes any bytes as the table says"
         (QCheck.make ~print:String.escaped any_bytes)
         (fun s -> Json.str s = escaped s));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:500 ~name:"any string reads back through str"
         QCheck.(small_list (pair string string))
         (fun kvs ->
           Json.parse (Json.obj (List.map (fun (k, v) -> (k, Json.str v)) kvs))
           = Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) kvs))) ]

(* --- every writer in the tree, through the one parser ---------------- *)

let pinned_table =
  { Psc.Policy.t_source = Psc.Policy.Tuned;
    t_host_cores = 4;
    t_entries =
      [ ("I.J",
         Psc.Policy.parallel ~collapse:true ~chunk_min:8 ~wake:64
           ~why:"rectangular band, 2 deep" ());
        ("I.J#2", Psc.Policy.parallel ~steal:false ~why:"fixed chunks" ());
        ("K", Psc.Policy.sequential ~why:"work 12 < fork overhead 256") ] }

let pinned_diags =
  let p line col offset = { Psc.Loc.line; col; offset } in
  [ Psc.Diag.diag Psc.Diag.Out_of_bounds (Psc.Loc.span (p 3 5 40) (p 3 12 47))
      "subscript I+1 of A[%s] may exceed its upper bound %s" "I" "M";
    Psc.Diag.diag Psc.Diag.Unused_data Psc.Loc.dummy "data %s is never used" "T" ]

(* One output of every kind: reals at the edges of "%.17g" (signed
   zero, NaN, infinities, the least subnormal), a windowed dimension
   whose box wraps onto its planes, an int, bool and enum array, an
   empty box, and each kind of scalar. *)
let pinned_outputs =
  let open Psc.Value in
  let slab elem dims = make_slab ~name:"x" ~elem:(Psc.Stypes.Scalar elem) ~dims in
  let r = slab Psc.Stypes.Sreal [ (0, 2, 2); (1, 4, 4) ] in
  List.iteri (set_float r)
    [ 0.1; -0.0; Float.nan; Float.infinity; Float.neg_infinity; 5e-324; 1e300;
      1.0 /. 3.0 ];
  let w = slab Psc.Stypes.Sreal [ (1, 3, 2) ] in
  set_float w 0 2.5;
  set_float w 1 (-7.0);
  let i = slab Psc.Stypes.Sint [ (-1, 3, 3) ] in
  List.iteri (set_int i) [ -3; 0; max_int ];
  let b = slab Psc.Stypes.Sbool [ (0, 2, 2) ] in
  set_bool b 0 true;
  let e = slab (Psc.Stypes.Senum "colour") [ (0, 2, 2) ] in
  set_int e 1 2;
  let z = slab Psc.Stypes.Sreal [ (1, 0, 0) ] in
  [ ("R", Varray r); ("W", Varray w); ("I", Varray i); ("B", Varray b);
    ("E", Varray e); ("Z", Varray z); ("s", Vscalar (Sc_real Float.nan));
    ("t", Vscalar (Sc_int (-4))); ("u", Vscalar (Sc_bool false));
    ("v", Vscalar (Sc_enum ("colour", 1))) ]

(* Any 64 bits as a double: NaNs of either sign and any payload,
   subnormals and infinities included, with the edges drawn often. *)
let any_bits =
  QCheck.Gen.(
    frequency
      [ (8, map2 (fun hi lo -> Int64.(logor (shift_left (of_int hi) 32) (of_int lo)))
               (int_bound 0xFFFFFFFF) (int_bound 0xFFFFFFFF));
        (1, oneofl
              (List.map Int64.bits_of_float
                 [ 0.0; -0.0; Float.nan; -.Float.nan; Float.infinity;
                   Float.neg_infinity; 5e-324; Float.min_float; Float.max_float;
                   0.1; 1e21; 1e-7 ])) ])

let tree_writer_tests =
  [ t "Diag.render Json" (fun () ->
        let d = Psc.Diag.diag Psc.Diag.Bad_request Psc.Loc.dummy "%s" awkward in
        (match Json.parse (Psc.Diag.render Psc.Diag.Json [ d ]) with
        | Json.Arr [ j ] -> check_str "message" awkward (member_str "message" j)
        | _ -> Alcotest.fail "not a one-element array");
        check_str "pinned bytes"
          {|[{"code":"E020","severity":"error","message":"subscript I+1 of A[I] may exceed its upper bound M","line":3,"col":5,"endLine":3,"endCol":12},{"code":"W110","severity":"warning","message":"data T is never used","line":0,"col":0,"endLine":0,"endCol":0}]|}
          (Psc.Diag.render Psc.Diag.Json pinned_diags));
    t "Metrics.render_json" (fun () ->
        let name = "test.json." ^ awkward in
        Psc.Metrics.add (Psc.Metrics.counter name) 7;
        match Json.parse (Psc.Metrics.render_json ()) with
        | Json.Arr rows ->
          Alcotest.(check bool) "the counter row reads back" true
            (List.exists
               (fun r ->
                 Json.member "name" r = Some (Json.Str name)
                 && Json.member "value" r = Some (Json.Num 7.))
               rows)
        | _ -> Alcotest.fail "not an array");
    t "Trace.render_events" (fun () ->
        let ev ev_ph ev_ts =
          { Psc.Trace.ev_name = awkward; ev_ph; ev_ts; ev_pid = 7; ev_tid = 3;
            ev_args = [ (awkward, awkward); ("sid", "7.1") ] }
        in
        let evs = [ ev Psc.Trace.Begin 1.5; ev Psc.Trace.End 2.25 ] in
        let back = Psc.Trace.parse_chrome_file (Psc.Trace.render_events ~epoch_us:12.5 evs) in
        Alcotest.(check bool) "events and epoch read back" true
          (back.Psc.Trace.f_events = evs && back.Psc.Trace.f_epoch_us = 12.5));
    t "Policy.to_json / of_json" (fun () ->
        let table =
          { pinned_table with
            Psc.Policy.t_entries =
              (awkward, Psc.Policy.sequential ~why:awkward) :: pinned_table.Psc.Policy.t_entries }
        in
        Alcotest.(check bool) "table reads back" true
          (Psc.Policy.of_json (Psc.Policy.to_json table) = Ok table);
        check_str "pinned bytes"
          {|{"policy":1,"source":"tuned","host_cores":4,"nests":[{"key":"I.J","par":true,"collapse":true,"steal":true,"chunk_min":8,"wake":64,"why":"rectangular band, 2 deep"},{"key":"I.J#2","par":true,"collapse":false,"steal":false,"why":"fixed chunks"},{"key":"K","par":false,"collapse":false,"steal":false,"why":"work 12 < fork overhead 256"}]}|}
          (Psc.Policy.to_json pinned_table);
        (* An unknown member, such as the chunk ceiling an older table
           may carry, is ignored. *)
        Alcotest.(check bool) "an unknown member is ignored" true
          (Psc.Policy.of_json
             {|{"policy":1,"source":"tuned","host_cores":4,"nests":[{"key":"I.J#2","par":true,"collapse":false,"steal":false,"chunk_max":32,"why":"fixed chunks"}]}|}
          = Ok
              { pinned_table with
                Psc.Policy.t_entries = [ List.nth pinned_table.Psc.Policy.t_entries 1 ] }));
    t "Proto.output_json" (fun () ->
        let enum = Psc.Value.Vscalar (Psc.Value.Sc_enum (awkward, 2)) in
        let j = Json.parse (Ps_server.Proto.output_json (awkward, enum)) in
        check_str "name" awkward (member_str "name" j);
        check_str "ty" awkward (member_str "ty" j);
        let arr = Psc.Exec.array_real ~dims:[ (0, 1) ] (fun ix -> 0.1 *. float ix.(0)) in
        let j = Json.parse (Ps_server.Proto.output_json (awkward, arr)) in
        Alcotest.(check bool) "values" true
          (Json.member "values" j
          = Some (Json.Arr [ Json.Str "0"; Json.Str "0.10000000000000001" ]));
        List.iter2
          (fun out want -> check_str (fst out) want (Ps_server.Proto.output_json out))
          pinned_outputs
          [ {|{"name":"R","kind":"array","elem":"real","dims":[[0,1],[1,4]],"values":["0.10000000000000001","-0","nan","inf","-inf","4.9406564584124654e-324","1.0000000000000001e+300","0.33333333333333331"]}|};
            {|{"name":"W","kind":"array","elem":"real","dims":[[1,3]],"values":["2.5","-7","2.5"]}|};
            {|{"name":"I","kind":"array","elem":"int","dims":[[-1,1]],"values":["-3","0","4611686018427387903"]}|};
            {|{"name":"B","kind":"array","elem":"bool","dims":[[0,1]],"values":["true","false"]}|};
            {|{"name":"E","kind":"array","elem":"enum","ty":"colour","dims":[[0,1]],"values":["0","2"]}|};
            {|{"name":"Z","kind":"array","elem":"real","dims":[[1,0]],"values":[]}|};
            {|{"name":"s","kind":"scalar","elem":"real","value":"nan"}|};
            {|{"name":"t","kind":"scalar","elem":"int","value":"-4"}|};
            {|{"name":"u","kind":"scalar","elem":"bool","value":"false"}|};
            {|{"name":"v","kind":"scalar","elem":"enum","ty":"colour","value":"1"}|} ]);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:200 ~name:"Proto.output_json renders any real as %.17g"
         QCheck.(list_of_size Gen.(int_range 0 40) (make ~print:Int64.to_string any_bits))
         (fun bits ->
           let xs = Array.of_list (List.map Int64.float_of_bits bits) in
           let out =
             Psc.Exec.array_real ~dims:[ (1, Array.length xs) ] (fun ix -> xs.(ix.(0) - 1))
           in
           let printed =
             List.map (fun x -> Json.str (Printf.sprintf "%.17g" x)) (Array.to_list xs)
           in
           Ps_server.Proto.output_json ("A", out)
           = Json.obj
               [ ("name", Json.str "A"); ("kind", Json.str "array");
                 ("elem", Json.str "real");
                 ("dims", Json.arr [ Json.arr [ "1"; Json.int (Array.length xs) ] ]);
                 ("values", Json.arr printed) ]
           && List.for_all2
                (fun x p ->
                  Ps_server.Proto.output_json ("x", Psc.Value.Vscalar (Psc.Value.Sc_real x))
                  = Json.obj
                      [ ("name", Json.str "x"); ("kind", Json.str "scalar");
                        ("elem", Json.str "real"); ("value", p) ])
                (Array.to_list xs) printed));
    t "Proto.ok_response" (fun () ->
        let j =
          Json.parse
            (Ps_server.Proto.with_trace_id ~trace_id:(Some awkward)
               (Ps_server.Proto.ok_response ~id:(Json.str awkward) ~cached:true
                  [ (awkward, Json.str awkward) ]))
        in
        List.iter (fun k -> check_str k awkward (member_str k j)) [ "id"; awkward; "trace_id" ]) ]

let () =
  Alcotest.run "json"
    [ ("parser", parser_tests); ("writer", writer_tests);
      ("tree writers", tree_writer_tests) ]
