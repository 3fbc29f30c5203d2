(* Golden snapshots: the scheduled flowchart text and the emitted C for
   every built-in model, every example spec and every example equation
   document, compared byte-for-byte against test/golden/.  A schedule or
   back-end change that moves any of these fails here with instructions;
   `make promote` re-blesses the whole directory after the drift is
   reviewed.

   A spec the C back end cannot handle (records) snapshots an ERROR
   line instead — losing *that* is drift too: it would mean the back
   end silently started accepting (or misreporting) the case. *)

let t name f = Alcotest.test_case name `Quick f

let flow_text load =
  match load () with
  | exception Psc.Error m -> "ERROR: " ^ m ^ "\n"
  | tp -> (
    match Psc.schedule (Psc.default_module tp) with
    | exception Psc.Error m -> "ERROR: " ^ m ^ "\n"
    | sc -> Psc.flowchart_string sc ^ "\n")

let c_text load =
  match load () with
  | exception Psc.Error m -> "ERROR: " ^ m ^ "\n"
  | tp -> ( match Psc.emit_c tp with exception Psc.Error m -> "ERROR: " ^ m ^ "\n" | c -> c)

let renderings = [ ("flow.txt", flow_text); ("c", c_text) ]

(* Every case as (name, load), [load] parsing its source as PS or as
   equation notation. *)
let all () =
  List.map (fun (name, src) -> (name, fun () -> Psc.load_string src)) (Golden_cases.all ())
  @ List.map
      (fun (name, src) -> (name, fun () -> Psc.load_equations src))
      (Golden_cases.equations ())

let golden_dir () =
  match
    List.find_opt
      (fun d -> Sys.file_exists d && Sys.is_directory d)
      [ "golden"; "test/golden" ]
  with
  | Some d -> d
  | None -> Alcotest.fail "golden directory not found (run make promote)"

(* ------------------------------------------------------------------ *)
(* Promotion: GOLDEN_PROMOTE=<dir> rewrites the snapshots instead of
   comparing (the Makefile points it at test/golden in the source tree,
   outside dune's sandbox). *)

let promote dir =
  let n = ref 0 in
  List.iter
    (fun (name, load) ->
      List.iter
        (fun (ext, render) ->
          let path = Filename.concat dir (name ^ "." ^ ext) in
          let oc = open_out_bin path in
          output_string oc (render load);
          close_out oc;
          incr n)
        renderings)
    (all ());
  Printf.printf "promoted %d golden files into %s\n" !n dir

(* ------------------------------------------------------------------ *)

let check_case name load ext render () =
  let path = Filename.concat (golden_dir ()) (name ^ "." ^ ext) in
  if not (Sys.file_exists path) then
    Alcotest.failf "no golden snapshot %s — run `make promote` and review the new file"
      path;
  let want = Golden_cases.read_file path in
  let got = render load in
  if not (String.equal want got) then
    Alcotest.failf
      "%s drifted from its golden snapshot.\n\
       --- expected (%s) ---\n%s\n--- got ---\n%s\n\
       If the change is intended, run `make promote` and review the diff."
      name path want got

let cases () =
  List.map
    (fun (name, load) ->
      ( name,
        List.map
          (fun (ext, render) -> t ext (check_case name load ext render))
          renderings ))
    (all ())

let () =
  match Sys.getenv_opt "GOLDEN_PROMOTE" with
  | Some dir -> promote dir
  | None ->
    (* The example files must have been found: an empty inventory would
       silently skip them. *)
    if List.length (Golden_cases.all ()) < List.length Golden_cases.models + 3
       || Golden_cases.equations () = []
    then failwith "test_golden: examples/ps specs not found";
    Alcotest.run "golden" (cases ())
