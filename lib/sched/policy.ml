(* Per-loop-nest scheduling policy (ROADMAP item 3).

   The scheduler proves legality — DO vs DOALL vs DOGROUP/DOINSPECT —
   and the verifier (E02x) checks it.  This module holds the orthogonal
   *shape* decision: for each parallelization point of a flowchart,
   whether the interpreter should fork at all, whether the perfect DOALL
   band under it ([Collapse.band]) is flattened, whether the forked job
   work-steals or deals fixed chunks, and optional per-job chunk-floor /
   wake-threshold overrides.  Every fork point of a run executes exactly
   one decision ([resolve]): its table entry, or [default] when the run
   has no table or the table no entry for it.  A policy can never change
   results, only how the iteration space is walked; that invariant is
   what lets a tuned table be cached and replayed as just another
   compile artifact. *)

type source = Static | Tuned

let source_name = function Static -> "static" | Tuned -> "tuned"

let source_of_name = function
  | "static" -> Some Static
  | "tuned" -> Some Tuned
  | _ -> None

type decision = {
  d_par : bool;       (* false: run the whole nest sequentially *)
  d_collapse : bool;  (* flatten the DOALL band under this head *)
  d_steal : bool;     (* work-stealing deal vs fixed contiguous chunks *)
  d_chunk_min : int option;  (* per-job floor on a claimed chunk *)
  d_wake : int option;       (* per-job wake threshold override *)
  d_why : string;            (* one-line rationale, recorded in the trajectory *)
}

let sequential ~why =
  { d_par = false; d_collapse = false; d_steal = false; d_chunk_min = None;
    d_wake = None; d_why = why }

let parallel ?(steal = true) ?(collapse = false) ?chunk_min ?wake ~why () =
  { d_par = true; d_collapse = collapse; d_steal = steal;
    d_chunk_min = chunk_min; d_wake = wake; d_why = why }

type table = {
  t_source : source;
  t_host_cores : int;
      (* Core count the table was derived for/on: chunk and wake choices
         do not transfer across hosts, so a mismatch is staleness (W121). *)
  t_entries : (string * decision) list;
}

(* --- nest keys ------------------------------------------------------ *)

(* A fork candidate is a parallel-kind loop the interpreter would
   actually fork: reachable from the top through DO loops and SOLVE
   bodies only.  Loops nested inside another parallel nest run inside
   the workers and are never fork candidates, so they carry no key.
   This walk is the only place that decides it: the interpreter, the
   cost model, the C back end and lint W120 all read its list.

   The key is the dot-joined path of binder variables from the root,
   with a "#n" ordinal when the same path occurs more than once (e.g.
   fig. 6 has three I.J nests).  The walk is deterministic, so the same
   flowchart yields the same keys at tune time and at run time. *)
type candidate = {
  c_loop : Flowchart.loop;
  c_key : string;
  c_binders : Flowchart.binder list;  (* outermost first *)
}

let index (fc : Flowchart.t) : candidate list =
  let acc = ref [] in
  let counts = Hashtbl.create 8 in
  let rec go binders (d : Flowchart.descriptor) =
    match d with
    | Flowchart.D_data _ | Flowchart.D_eq _ -> ()
    | Flowchart.D_solve s ->
      List.iter (go (Flowchart.B_solve s :: binders)) s.Flowchart.sv_body
    | Flowchart.D_loop l -> (
      match l.Flowchart.lp_kind with
      | Flowchart.Iterative ->
        List.iter (go (Flowchart.B_loop l :: binders)) l.Flowchart.lp_body
      | Flowchart.Parallel | Flowchart.Grouped _ | Flowchart.Inspected _ ->
        let binders = List.rev binders in
        let base =
          String.concat "."
            (List.map Flowchart.binder_var binders @ [ l.Flowchart.lp_var ])
        in
        let n = (try Hashtbl.find counts base with Not_found -> 0) + 1 in
        Hashtbl.replace counts base n;
        let key = if n = 1 then base else Printf.sprintf "%s#%d" base n in
        acc := { c_loop = l; c_key = key; c_binders = binders } :: !acc)
  in
  List.iter (go []) fc;
  List.rev !acc

(* Profiler sites of loops are named "<kind> <label>": a fork
   candidate's label is its key, so the tuner can attribute a measured
   inclusive time to the nest it is deciding. *)
let site_name (l : Flowchart.loop) label =
  Flowchart.kind_name l.Flowchart.lp_kind ^ " " ^ label

let find (t : table) key = List.assoc_opt key t.t_entries

(* What a run with no table does at a fork point: fork with work
   stealing and the pool's default chunks and wake threshold, and
   flatten the band only where [--collapse] marked its head. *)
let default (l : Flowchart.loop) =
  parallel ~steal:true ~collapse:l.Flowchart.lp_collapse ~why:"default" ()

(* Pair each fork candidate of [fc] with the decision it runs: its table
   entry, else [default].  The loop records are physically those of
   [fc], so the interpreter can look decisions up by identity while
   compiling. *)
let resolve (t : table option) (fc : Flowchart.t) :
    (candidate * decision) list =
  List.map
    (fun c ->
      match Option.bind t (fun t -> find t c.c_key) with
      | Some d -> (c, d)
      | None -> (c, default c.c_loop))
    (index fc)

(* One decision shape applied to every fork candidate of [fc]. *)
let uniform ~source ~cores (fc : Flowchart.t) (mk : Flowchart.loop -> decision)
    =
  { t_source = source; t_host_cores = cores;
    t_entries = List.map (fun c -> (c.c_key, mk c.c_loop)) (index fc) }

let stale (t : table) ~host_cores = t.t_host_cores <> host_cores

(* --- rendering ------------------------------------------------------ *)

let summary (d : decision) =
  if not d.d_par then "seq"
  else begin
    let b = Buffer.create 16 in
    Buffer.add_string b (if d.d_steal then "steal" else "fixed");
    if d.d_collapse then Buffer.add_string b "+collapse";
    (match d.d_chunk_min with
    | Some c -> Buffer.add_string b (Printf.sprintf ",chunk>=%d" c)
    | None -> ());
    (match d.d_wake with
    | Some w -> Buffer.add_string b (Printf.sprintf ",wake=%d" w)
    | None -> ());
    Buffer.contents b
  end

let table_summary (t : table) =
  Printf.sprintf "%s[%s]" (source_name t.t_source)
    (String.concat ";"
       (List.map (fun (k, d) -> k ^ "=" ^ summary d) t.t_entries))

(* --- wire / cache format -------------------------------------------- *)

(* One JSON object per table; schema field "policy":1.  This is both the
   compile-server artifact payload and the `psc tune` output. *)

let to_json (t : table) =
  let nest (key, d) =
    Ps_json.(
      obj
        ([ ("key", str key); ("par", bool d.d_par);
           ("collapse", bool d.d_collapse); ("steal", bool d.d_steal) ]
        @ opt "chunk_min" int d.d_chunk_min
        @ opt "wake" int d.d_wake
        @ [ ("why", str d.d_why) ]))
  in
  Ps_json.(
    obj
      [ ("policy", int 1); ("source", str (source_name t.t_source));
        ("host_cores", int t.t_host_cores);
        ("nests", arr (List.map nest t.t_entries)) ])

let of_json (s : string) : (table, string) result =
  let module J = Ps_json in
  let open struct
    exception Bad of string
  end in
  let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt in
  let need msg = function Some v -> v | None -> bad "%s" msg in
  try
    let j =
      try J.parse s with J.Parse_error m -> bad "malformed JSON: %s" m
    in
    (match J.member_num "policy" j with
    | Some f when int_of_float f = 1 -> ()
    | _ -> bad "missing or unsupported \"policy\" version");
    let source = need {|missing "source"|} (J.member_str "source" j) in
    let source =
      match source_of_name source with
      | Some src -> src
      | None -> bad "unknown source %S" source
    in
    let host_cores = need {|missing "host_cores"|} (J.member_num "host_cores" j) in
    let nests =
      match J.member "nests" j with
      | Some (J.Arr l) -> l
      | _ -> bad "missing \"nests\" array"
    in
    let entry n =
      let flag name =
        need (Printf.sprintf "nest entry missing bool %S" name) (J.member_bool name n)
      in
      let opt name = Option.map int_of_float (J.member_num name n) in
      ( need {|nest entry missing string "key"|} (J.member_str "key" n),
        { d_par = flag "par"; d_collapse = flag "collapse";
          d_steal = flag "steal"; d_chunk_min = opt "chunk_min";
          d_wake = opt "wake";
          d_why = Option.value (J.member_str "why" n) ~default:"" } )
    in
    Ok { t_source = source; t_host_cores = int_of_float host_cores;
         t_entries = List.map entry nests }
  with Bad m -> Error m

(* --- structural validation ------------------------------------------ *)

(* A table is well-formed for a flowchart when every entry names an
   existing fork candidate and collapse is only requested on the head
   of a perfect DOALL band.  Policies are advisory, so an ill-formed
   table is a caller error, not a legality problem — legality stays
   with the verifier regardless of what the policy asks for. *)
let validate (t : table) (fc : Flowchart.t) : string list =
  let keyed = index fc in
  List.concat_map
    (fun (key, d) ->
      match List.find_opt (fun c -> String.equal c.c_key key) keyed with
      | None -> [ Printf.sprintf "policy entry %S matches no loop nest" key ]
      | Some c when d.d_collapse && not (Collapse.collapsible c.c_loop) ->
        [ Printf.sprintf
            "policy entry %S requests collapse on a nest that heads no \
             perfect DOALL band"
            key ]
      | Some _ -> (
        match d.d_chunk_min with
        | Some c when c < 1 ->
          [ Printf.sprintf "policy entry %S: chunk_min %d < 1" key c ]
        | _ -> []))
    t.t_entries
