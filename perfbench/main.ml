(* The benchmark's entry point:

     main.exe --workload compile|kernels|serve --seed N --seconds S --trace 0|1

   With --trace 0 it measures the workload's end-to-end metrics; with
   --trace 1 it runs the workload with spans recorded around every
   layer call and reports per-layer numbers instead.  The metric names
   and units are read from BENCHMARK.json at the checkout root, so the
   output always carries exactly the declared set: every end-to-end
   metric, or every per-layer metric (0 for a layer the workload does
   not exercise).  Human-readable lines go first; the last line of
   standard output is one JSON object {correct, attempted, failed,
   metrics}.  README.md describes the workloads and which end-to-end
   metric each layer metric should move. *)

module Json = Psc.Trace.Json

let usage () =
  prerr_endline
    "usage: main.exe --workload compile|kernels|serve --seed N --seconds S \
     --trace 0|1";
  exit 2

(* (name, unit) of every metric declared under [key] in BENCHMARK.json. *)
let declared key =
  let j = Json.parse (Pb.read_file "BENCHMARK.json") in
  match Json.member key j with
  | Some (Json.Arr ms) ->
    List.map
      (fun m ->
        match (Json.member "name" m, Json.member "unit" m) with
        | Some (Json.Str n), Some (Json.Str u) -> (n, u)
        | _ -> failwith ("BENCHMARK.json: malformed entry under " ^ key))
      ms
  | _ -> failwith ("BENCHMARK.json: no " ^ key)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
      workload := w;
      parse rest
    | "--seed" :: s :: rest ->
      seed := int_of_string s;
      parse rest
    | "--seconds" :: s :: rest ->
      seconds := float_of_string s;
      parse rest
    | "--trace" :: t :: rest ->
      trace := t = "1";
      parse rest
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let catalog = declared (if !trace then "per_layer" else "end_to_end") in
  Pb.ensure_work_dir ();
  let seed = !seed and seconds = !seconds in
  let r =
    match (!workload, !trace) with
    | "compile", false -> Wl_compile.run ~seed ~seconds
    | "compile", true -> Wl_compile.run_traced ~seed ~seconds
    | "kernels", false -> Wl_kernels.run ~seed ~seconds
    | "kernels", true -> Wl_kernels.run_traced ~seed ~seconds
    | "serve", false -> Wl_serve.run ~seed ~seconds
    | "serve", true -> Wl_serve.run_traced ~seed ~seconds
    | _ -> usage ()
  in
  (* A measured metric the catalog does not declare, or declares with
     another unit, is a bug in the benchmark: refuse to print a result. *)
  List.iter
    (fun (m : Pb.metric) ->
      match List.assoc_opt m.Pb.m_name catalog with
      | Some u when u = m.Pb.m_unit -> ()
      | _ ->
        Printf.eprintf "perfbench: %s (%s) is not declared in BENCHMARK.json\n"
          m.Pb.m_name m.Pb.m_unit;
        exit 3)
    r.Pb.metrics;
  (* A value that is not a finite number is a broken measurement: it is
     printed as 0 and the run is not correct. *)
  let finite = ref true in
  let value name =
    match List.find_opt (fun (m : Pb.metric) -> m.Pb.m_name = name) r.Pb.metrics with
    | Some m when Float.is_finite m.Pb.m_value -> m.Pb.m_value
    | Some _ ->
      finite := false;
      0.0
    | None when !trace -> 0.0
    | None ->
      Printf.eprintf "perfbench: %s measured no %s\n" !workload name;
      exit 3
  in
  let error_rate =
    float_of_int r.Pb.failed /. float_of_int (max 1 r.Pb.attempted)
  in
  Printf.printf "%-36s %16s %s\n" "metric" "value" "unit";
  List.iter
    (fun (name, u) -> Printf.printf "%-36s %16.6g %s\n" name (value name) u)
    catalog;
  Printf.printf "%-36s %16.6g %s\n" "error_rate" error_rate "ratio";
  let json_metrics =
    List.map
      (fun (name, u) ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name (value name) u)
      catalog
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (r.Pb.correct && r.Pb.failed = 0 && !finite)
    r.Pb.attempted r.Pb.failed
    (String.concat ", " json_metrics)
