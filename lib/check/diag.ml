(* Unified diagnostics: stable codes, severities, spans, renderers.

   The code list is closed on purpose — a diagnostic code is part of the
   tool's interface (scripts grep for it, tests assert on it), so adding
   one is an API change reviewed here rather than a string typed at a
   call site. *)

module Loc = Ps_lang.Loc

type severity = Error | Warning

type code =
  | Undefined_data
  | Conflicting_definition
  | Missing_field
  | Possible_overlap
  | Coverage_unverified
  | Doall_carried
  | Negative_dependence
  | Unverifiable_dependence
  | Order_violation
  | Missing_equation
  | Duplicate_equation
  | Unbound_index
  | Window_underflow
  | Hyperplane_violation
  | Non_unimodular
  | Window_clobber
  | Bad_group_partition
  | Inspector_missing
  | Out_of_bounds
  | Bad_collapse
  | Unused_data
  | Dead_equation
  | No_virtualization
  | Unschedulable
  | Unverified_window
  | Opaque_classifiable
  | Inspector_static
  | Sequential_doall
  | Policy_stale
  | Bad_policy
  | Bad_request
  | Deadline_exceeded
  | Server_draining
  | Server_overloaded

let code_id = function
  | Undefined_data -> "E001"
  | Conflicting_definition -> "E002"
  | Missing_field -> "E003"
  | Possible_overlap -> "W101"
  | Coverage_unverified -> "W102"
  | Doall_carried -> "E010"
  | Negative_dependence -> "E011"
  | Unverifiable_dependence -> "E012"
  | Order_violation -> "E013"
  | Missing_equation -> "E014"
  | Duplicate_equation -> "E015"
  | Unbound_index -> "E016"
  | Window_underflow -> "E017"
  | Hyperplane_violation -> "E018"
  | Non_unimodular -> "E019"
  | Window_clobber -> "E022"
  | Bad_group_partition -> "E023"
  | Inspector_missing -> "E024"
  | Out_of_bounds -> "E020"
  | Bad_collapse -> "E021"
  | Unused_data -> "W110"
  | Dead_equation -> "W111"
  | No_virtualization -> "W112"
  | Unschedulable -> "W113"
  | Unverified_window -> "W114"
  | Opaque_classifiable -> "W115"
  | Inspector_static -> "W116"
  | Sequential_doall -> "W120"
  | Policy_stale -> "W121"
  | Bad_policy -> "E025"
  (* E03x: the compile service (`psc serve`).  These are per-request
     diagnostics — a malformed or expired request is answered, never
     fatal to the server process. *)
  | Bad_request -> "E030"
  | Deadline_exceeded -> "E031"
  | Server_draining -> "E032"
  | Server_overloaded -> "E033"

let code_severity c =
  match (code_id c).[0] with 'E' -> Error | _ -> Warning

type t = { d_code : code; d_msg : string; d_loc : Loc.span }

let diag code loc fmt =
  Fmt.kstr (fun d_msg -> { d_code = code; d_msg; d_loc = loc }) fmt

let severity d = code_severity d.d_code

let is_error d = severity d = Error

let errors ds = List.filter is_error ds

let warnings ds = List.filter (fun d -> not (is_error d)) ds

let sort ds =
  let key d =
    ( (match severity d with Error -> 0 | Warning -> 1),
      d.d_loc.Loc.start_p.Loc.offset,
      code_id d.d_code,
      d.d_msg )
  in
  List.stable_sort (fun a b -> compare (key a) (key b)) ds

type format = Text | Json

let severity_name = function Error -> "error" | Warning -> "warning"

let pp ppf d =
  Fmt.pf ppf "%s[%s]: %s (%a)"
    (severity_name (severity d))
    (code_id d.d_code) d.d_msg Loc.pp d.d_loc

(* One flat object per diagnostic, through the shared JSON writer. *)
let to_json d =
  let s = d.d_loc.Loc.start_p and e = d.d_loc.Loc.end_p in
  Ps_json.(
    obj
      [ ("code", str (code_id d.d_code));
        ("severity", str (severity_name (severity d)));
        ("message", str d.d_msg);
        ("line", int s.Loc.line); ("col", int s.Loc.col);
        ("endLine", int e.Loc.line); ("endCol", int e.Loc.col) ])

let render fmt ds =
  let ds = sort ds in
  match fmt with
  | Text -> String.concat "" (List.map (fun d -> Fmt.str "%a\n" pp d) ds)
  | Json -> Ps_json.arr (List.map to_json ds)

let summary ds =
  let ne = List.length (errors ds) and nw = List.length (warnings ds) in
  let plural n s = Printf.sprintf "%d %s%s" n s (if n = 1 then "" else "s") in
  match ne, nw with
  | 0, 0 -> "no diagnostics"
  | _, 0 -> plural ne "error"
  | 0, _ -> plural nw "warning"
  | _, _ -> plural ne "error" ^ ", " ^ plural nw "warning"

let exit_code ?(werror = false) ds =
  if errors ds <> [] then 1
  else if werror && warnings ds <> [] then 1
  else 0
