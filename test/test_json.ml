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

let writer_tests =
  [ t "writers render the exact shapes" (fun () ->
        check_str "empty" "{}[]" (Json.obj [] ^ Json.arr []);
        check_str "obj" {|{"a":1,"b":[true,false],"c":""}|}
          (Json.obj
             [ ("a", Json.int 1); ("b", Json.arr [ Json.bool true; Json.bool false ]);
               ("c", Json.str "") ]);
        check_str "escapes" "\"q\\\"\\\\\\n\\t\\r\\u0001\\u001f\\u0008/\xc3\xa9\""
          (Json.str "q\"\\\n\t\r\001\031\b/\xc3\xa9");
        check_str "escaped key" {|{"k\"":null}|} (Json.obj [ ("k\"", "null") ]));
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
          = Some (Json.Arr [ Json.Str "0"; Json.Str "0.10000000000000001" ])));
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
