(* Flowchart descriptors (paper §3.2, Fig. 4).

   A flowchart is a list of descriptors.  A descriptor denotes either a
   dependency-graph node (a data item or an equation, for which the code
   generator emits straight-line code) or a subrange type, meaning a for
   loop over that subrange; the latter carries the loop flavor — iterative
   (DO) or parallel (DOALL) — and the list of descriptors nested inside. *)

open Ps_sem

type loop_kind =
  | Iterative  (* DO: carried dependence, must run in index order *)
  | Parallel   (* DOALL: iterations are independent *)
  | Grouped of int
      (* DOGROUP(g): every carried dependence distance is a multiple of
         g >= 2, so the g residue classes mod g are mutually independent
         — a DOALL over the classes, index order within each class. *)
  | Inspected of Ps_lang.Ast.expr
      (* DOINSPECT(d): the carried distance is the runtime parameter
         expression d.  An inspector node evaluates d on entry: d >= 1
         partitions the iterations into d independent classes (run as
         DOGROUP(d)); d < 1 is a runtime legality failure. *)

type descriptor =
  | D_data of string
      (* A data item: a placement marker; the code generator emits the
         declaration/allocation here. *)
  | D_eq of eq_ref
  | D_loop of loop
  | D_solve of solve

and eq_ref = {
  er_id : int;
  er_aliases : (string * string) list;
      (* Renamings [equation index var -> enclosing loop var] for
         equations whose index name differs from the canonical loop
         variable chosen for their component. *)
}

and loop = {
  lp_var : string;              (* canonical loop variable *)
  lp_range : Stypes.subrange;   (* bounds of the loop *)
  lp_kind : loop_kind;
  lp_collapse : bool;
      (* Head of a perfectly nested DOALL band: the interpreter and code
         generator may flatten this loop together with the DOALL
         immediately inside it into one combined iteration space.
         Marked by the [Collapse] pass; always false straight out of the
         scheduler. *)
  lp_body : descriptor list;
}

(* A solved subscript: instead of looping over [sv_var]'s subrange, its
   value is computed from the enclosing loop variables and the body runs
   only if it falls inside the subrange.  Produced by the
   extraction-sinking pass ([Sink]), which fuses a post-loop read of a
   windowed array into the loop that produces it — the paper's "unrotate
   back into the return parameter" (§4). *)
and solve = {
  sv_var : string;
  sv_range : Stypes.subrange;
  sv_rhs : Ps_lang.Ast.expr;    (* value in terms of enclosing loop vars *)
  sv_body : descriptor list;
}

type t = descriptor list

let kind_name = function
  | Iterative -> "DO"
  | Parallel -> "DOALL"
  | Grouped g -> Printf.sprintf "DOGROUP(%d)" g
  | Inspected e -> Printf.sprintf "DOINSPECT(%s)" (Ps_lang.Pretty.expr_to_string e)

(* Display form of a loop's keyword; a [*] marks the head of a
   collapsible DOALL band, so marked and unmarked flowcharts are
   distinguishable in goldens while unmarked output is unchanged. *)
let loop_keyword l = kind_name l.lp_kind ^ if l.lp_collapse then "*" else ""

(* Compact single-line form used throughout the paper's Fig. 5:
   "DO K (DOALL I (DOALL J (eq.3)))". *)
let rec pp_compact em ppf (fc : t) =
  Fmt.pf ppf "%a" (Fmt.list ~sep:(Fmt.any "; ") (pp_descriptor_compact em)) fc

and pp_descriptor_compact em ppf = function
  | D_data d -> Fmt.pf ppf "%s" d
  | D_eq { er_id; _ } -> Fmt.string ppf (Elab.eq_exn em er_id).Elab.q_name
  | D_loop l ->
    Fmt.pf ppf "%s %s (%a)" (loop_keyword l) l.lp_var (pp_compact em) l.lp_body
  | D_solve s ->
    Fmt.pf ppf "SOLVE %s = %s (%a)" s.sv_var
      (Ps_lang.Pretty.expr_to_string s.sv_rhs)
      (pp_compact em) s.sv_body

let to_compact_string em fc = Fmt.str "%a" (pp_compact em) fc

(* Indented multi-line form matching the paper's Fig. 6 / Fig. 7. *)
let rec pp_tree em ppf (fc : t) =
  Fmt.pf ppf "%a" (Fmt.list ~sep:Fmt.cut (pp_descriptor_tree em)) fc

and pp_descriptor_tree em ppf = function
  | D_data d -> Fmt.string ppf d
  | D_eq { er_id; _ } -> Fmt.string ppf (Elab.eq_exn em er_id).Elab.q_name
  | D_loop l ->
    Fmt.pf ppf "@[<v2>%s %s (@,%a@]@,)" (loop_keyword l) l.lp_var
      (fun ppf body -> pp_tree em ppf body)
      l.lp_body
  | D_solve s ->
    Fmt.pf ppf "@[<v2>SOLVE %s = %s (@,%a@]@,)" s.sv_var
      (Ps_lang.Pretty.expr_to_string s.sv_rhs)
      (fun ppf body -> pp_tree em ppf body)
      s.sv_body

let to_tree_string em fc = Fmt.str "@[<v>%a@]" (pp_tree em) fc

(* Structural queries used by tests and the benchmark. *)

let rec count_loops ?kind (fc : t) =
  List.fold_left
    (fun acc d ->
      match d with
      | D_loop l ->
        let me =
          match kind with
          | None -> 1
          | Some k -> if l.lp_kind = k then 1 else 0
        in
        acc + me + count_loops ?kind l.lp_body
      | D_solve s -> acc + count_loops ?kind s.sv_body
      | D_data _ | D_eq _ -> acc)
    0 fc

let rec equations (fc : t) =
  List.concat_map
    (function
      | D_eq { er_id; _ } -> [ er_id ]
      | D_loop l -> equations l.lp_body
      | D_solve s -> equations s.sv_body
      | D_data _ -> [])
    fc

let aligned_dim em eq_ids ~data ~var =
  List.find_map
    (fun id ->
      List.find_map
        (fun (df : Elab.def) ->
          if not (String.equal df.Elab.df_data data) then None
          else
            let rec find p = function
              | [] -> None
              | Elab.Sub_index ix :: _ when String.equal ix.Elab.ix_var var -> Some p
              | _ :: rest -> find (p + 1) rest
            in
            find 0 df.Elab.df_subs)
        (Elab.eq_exn em id).Elab.q_defs)
    eq_ids

type binder = B_loop of loop | B_solve of solve

let binder_var = function B_loop l -> l.lp_var | B_solve s -> s.sv_var

let iter_eqs f (fc : t) =
  let seq = ref 0 in
  let rec go binders d =
    match d with
    | D_data _ -> ()
    | D_eq er ->
      f ~binders:(List.rev binders) ~seq:!seq er;
      incr seq
    | D_loop l -> List.iter (go (B_loop l :: binders)) l.lp_body
    | D_solve s -> List.iter (go (B_solve s :: binders)) s.sv_body
  in
  List.iter (go []) fc

let rec map_loops f (fc : t) =
  List.map
    (function
      | D_loop l -> D_loop (f { l with lp_body = map_loops f l.lp_body })
      | D_solve s -> D_solve { s with sv_body = map_loops f s.sv_body }
      | (D_data _ | D_eq _) as d -> d)
    fc
