(* Campaign driver: generate, differentiate, shrink, archive.

   Failures are minimized with [Shrink.minimize] and written to the
   corpus directory as standalone .ps files carrying a scalar directive
   comment, so `dune runtest` can replay them without knowing the
   generator.  Corpus files regress green once their bug is fixed. *)

type config = {
  fz_seed : int;
  fz_count : int;
  fz_paths : Diff.path list;
  fz_pool : int;
  fz_out_corpus : string option;
  fz_log : string -> unit;
}

type failure = {
  f_index : int;
  f_spec : Gen.spec;
  f_verdict : string;
  f_min : Gen.spec;
  f_min_verdict : string;
  f_file : string option;
}

type report = {
  r_count : int;
  r_agreed : int;
  r_hyper_applied : int;
  r_cc_run : int;
  r_failures : failure list;
}

let default_paths =
  [ Diff.Seq; Diff.Nowin; Diff.Nocheck; Diff.Passes; Diff.Steal; Diff.Collapse;
    Diff.Group; Diff.Inspector; Diff.Hyper; Diff.Hyper_par; Diff.Auto;
    Diff.Cc; Diff.Server ]

let is_load_verdict v =
  String.length v >= 5 && String.sub v 0 5 = "load:"

(* ------------------------------------------------------------------ *)
(* Corpus files *)

let mkdir_p dir = ignore (Sys.command (Printf.sprintf "mkdir -p %s" (Filename.quote dir)))

(* Comment-safe: no '*' so the header can never close its own comment. *)
let sanitize s = String.map (fun c -> if c = '*' || c = '(' || c = ')' then '#' else c) s

let scalars_directive scalars =
  Printf.sprintf "(*! fuzz scalars: %s *)"
    (String.concat " " (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) scalars))

let corpus_entry ~seed ~index ~verdict (spec : Gen.spec) : string =
  Printf.sprintf
    "(* ps fuzz: minimized failing case.\n   seed=%d case=%d %s\n   verdict: %s *)\n%s\n%s"
    seed index
    (sanitize (Gen.describe spec))
    (sanitize verdict)
    (scalars_directive (Gen.scalars spec))
    (Gen.render spec)

(* Find the scalar directive in a corpus source, if any. *)
let parse_scalars (src : string) : (string * int) list =
  let tag = "fuzz scalars:" in
  let find_tag line =
    let n = String.length line and m = String.length tag in
    let rec go i =
      if i + m > n then None
      else if String.sub line i m = tag then Some (String.sub line (i + m) (n - i - m))
      else go (i + 1)
    in
    go 0
  in
  match List.find_map find_tag (String.split_on_char '\n' src) with
  | None -> []
  | Some rest ->
    String.split_on_char ' ' rest
    |> List.filter_map (fun tok ->
           match String.index_opt tok '=' with
           | None -> None
           | Some i -> (
             let name = String.sub tok 0 i in
             match int_of_string_opt (String.sub tok (i + 1) (String.length tok - i - 1)) with
             | Some v when name <> "" -> Some (name, v)
             | _ -> None))

(* ------------------------------------------------------------------ *)
(* Campaign *)

let campaign (cfg : config) : report =
  Option.iter mkdir_p cfg.fz_out_corpus;
  let agreed = ref 0 and hyper = ref 0 and ccs = ref 0 in
  let failures = ref [] in
  for i = 0 to cfg.fz_count - 1 do
    let rng = Gen.Rng.split cfg.fz_seed i in
    let spec = Gen.generate rng in
    let r = Diff.check_spec ~pool_size:cfg.fz_pool ~paths:cfg.fz_paths spec in
    List.iter
      (fun (p, o) ->
        match (p, o) with
        | (Diff.Hyper | Diff.Hyper_par), Diff.Outputs _ -> incr hyper
        | Diff.Cc, Diff.Checksums _ -> incr ccs
        | _ -> ())
      r.Diff.cr_outcomes;
    (match r.Diff.cr_verdict with
     | None -> incr agreed
     | Some verdict ->
       cfg.fz_log
         (Printf.sprintf "case %d (%s): MISMATCH: %s" i (Gen.describe spec) verdict);
       let load_class = is_load_verdict verdict in
       let fails s =
         match (Diff.check_spec ~pool_size:cfg.fz_pool ~paths:cfg.fz_paths s).Diff.cr_verdict with
         | None -> false
         | Some v -> is_load_verdict v = load_class
       in
       let min_spec = Shrink.minimize ~fails spec in
       let min_verdict =
         match (Diff.check_spec ~pool_size:cfg.fz_pool ~paths:cfg.fz_paths min_spec).Diff.cr_verdict with
         | Some v -> v
         | None -> verdict
       in
       let file =
         Option.map
           (fun dir ->
             let path =
               Filename.concat dir (Printf.sprintf "fz_s%d_c%d.ps" cfg.fz_seed i)
             in
             let oc = open_out path in
             output_string oc (corpus_entry ~seed:cfg.fz_seed ~index:i ~verdict:min_verdict min_spec);
             close_out oc;
             cfg.fz_log (Printf.sprintf "  minimized -> %s" path);
             path)
           cfg.fz_out_corpus
       in
       failures :=
         { f_index = i;
           f_spec = spec;
           f_verdict = verdict;
           f_min = min_spec;
           f_min_verdict = min_verdict;
           f_file = file }
         :: !failures);
    if (i + 1) mod 25 = 0 then
      cfg.fz_log
        (Printf.sprintf "%d/%d cases, %d agreed, %d mismatches" (i + 1) cfg.fz_count !agreed
           (List.length !failures))
  done;
  { r_count = cfg.fz_count;
    r_agreed = !agreed;
    r_hyper_applied = !hyper;
    r_cc_run = !ccs;
    r_failures = List.rev !failures }

(* ------------------------------------------------------------------ *)
(* Corpus replay *)

let replay_source ?(pool_size = 4) ~paths (src : string) : (unit, string) result =
  match Psc.load_string src with
  | exception Psc.Error m -> Error ("load: " ^ m)
  | tp -> (
    let em = Psc.default_module tp in
    let given = parse_scalars src in
    let scalars =
      List.filter_map
        (fun (d : Psc.Elab.data) ->
          if Psc.Stypes.dims d.Psc.Elab.d_ty = [] then
            Some
              ( d.Psc.Elab.d_name,
                match List.assoc_opt d.Psc.Elab.d_name given with
                | Some v -> v
                | None -> 6 )
          else None)
        em.Psc.Elab.em_params
    in
    match Psc.default_inputs em ~scalars with
    | exception Psc.Error m -> Error ("inputs: " ^ m)
    | inputs -> (
      let r = Diff.check ~pool_size ~paths tp ~inputs ~scalars in
      match r.Diff.cr_verdict with None -> Ok () | Some v -> Error v))

let replay_file ?pool_size ~paths path : (unit, string) result =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  replay_source ?pool_size ~paths src
