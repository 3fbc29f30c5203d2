(* The inventory for the golden-snapshot layer: every built-in model,
   every .ps spec under examples/ps, and every equation-notation document
   (.eqn) there, as (name, source) pairs.  Shared by test_golden.ml
   (comparison in `dune runtest`) and by `make promote` (re-blessing the
   snapshots after an intended schedule or back-end change). *)

let models =
  [ ("jacobi", Ps_models.Models.jacobi);
    ("seidel", Ps_models.Models.seidel);
    ("heat1d", Ps_models.Models.heat1d);
    ("matmul", Ps_models.Models.matmul);
    ("binomial", Ps_models.Models.binomial);
    ("prefix_sum", Ps_models.Models.prefix_sum);
    ("two_module", Ps_models.Models.two_module);
    ("classify", Ps_models.Models.classify);
    ("skewed", Ps_models.Models.skewed);
    ("particles", Ps_models.Models.particles);
    ("lcs", Ps_models.Models.lcs) ]

(* The tests run from _build/default/test, `make promote` from the repo
   root; probe both spots. *)
let example_dirs = [ "../examples/ps"; "examples/ps" ]

let read_file = Util.read_file

(* The example files with suffix [ext], each named [prefix ^ basename]. *)
let example_files ~prefix ext =
  match
    List.find_opt (fun d -> Sys.file_exists d && Sys.is_directory d) example_dirs
  with
  | None -> []
  | Some dir ->
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ext)
    |> List.sort compare
    |> List.map (fun f ->
           ( prefix ^ Filename.remove_extension f,
             read_file (Filename.concat dir f) ))

let all () = models @ example_files ~prefix:"example_" ".ps"

(* Loaded through Psc.load_equations, not the PS parser. *)
let equations () = example_files ~prefix:"eqn_" ".eqn"
