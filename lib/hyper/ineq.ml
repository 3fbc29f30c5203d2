(* Dependence-inequality extraction (paper §4).

   For a recursively defined array A, every self-reference
   A[x1 + o1, ..., xn + on] inside the equation defining A[x1, ..., xn]
   induces the dependence inequality

       a · x  >  a · (x + o)        i.e.   a · d > 0  with  d = -o,

   where [t(A[x]) = a · x] is the linear time of creation.  This module
   extracts the distinct difference vectors [d] from an elaborated
   module. *)

open Ps_sem

exception Not_applicable of string

let fail fmt = Fmt.kstr (fun m -> raise (Not_applicable m)) fmt

(* The offset vector of one reference [subs] relative to the defining
   indices [ixs]: subscript at position p must be [var_p + c]. *)
let offset_vector (ixs : Elab.index list) (subs : Ps_lang.Ast.expr list) :
    int array option =
  if List.length subs <> List.length ixs then None
  else
    let offs =
      List.map2
        (fun (ix : Elab.index) sub ->
          match Linexpr.of_expr sub with
          | Some l -> (
            match l.Linexpr.terms with
            | [ (v, 1) ] when String.equal v ix.Elab.ix_var -> Some l.Linexpr.const
            | _ -> None)
          | None -> None)
        ixs subs
    in
    if List.for_all Option.is_some offs then
      Some (Array.of_list (List.map Option.get offs))
    else None

type dependences = {
  dep_eq : Elab.eq;              (* the recursive equation *)
  dep_indices : Elab.index list; (* its defining indices, in order *)
  dep_vectors : int array list;  (* distinct difference vectors d = -offset *)
}

(* Find the recursive equation defining [target] and extract its
   dependence difference vectors. *)
let extract (em : Elab.emodule) ~(target : string) : dependences =
  (match Elab.find_data em target with
   | None -> fail "no data item named %s" target
   | Some d ->
     if Stypes.dims d.Elab.d_ty = [] then fail "%s is a scalar" target);
  let defining =
    List.filter
      (fun (q : Elab.eq) ->
        List.exists (fun df -> String.equal df.Elab.df_data target) q.Elab.q_defs)
      em.Elab.em_eqs
  in
  (* The subscript lists of [target]'s references in [q]'s right-hand
     side, as the dependence graph reads them. *)
  let target_refs (q : Elab.eq) =
    List.filter_map
      (fun (nm, subs) -> if String.equal nm target then Some subs else None)
      (Ps_graph.Build.collect_refs em q.Elab.q_rhs [])
  in
  let recursive = List.filter (fun q -> target_refs q <> []) defining in
  match recursive with
  | [] -> fail "%s has no recursive definition" target
  | _ :: _ :: _ ->
    fail "%s is defined recursively by several equations; not supported" target
  | [ q ] ->
    (* The defining occurrence must subscript every dimension by a plain
       index variable. *)
    let df = List.find (fun df -> String.equal df.Elab.df_data target) q.Elab.q_defs in
    let ixs =
      List.map
        (function
          | Elab.Sub_index ix -> ix
          | Elab.Sub_fixed _ ->
            fail "the recursive equation for %s fixes one of its subscripts" target)
        df.Elab.df_subs
    in
    let vectors =
      List.map
        (fun subs ->
          match offset_vector ixs subs with
          | Some off -> Array.map (fun o -> -o) off
          | None ->
            let open Ps_lang.Ast in
            let r =
              if subs = [] then var_e target else mk (Index (var_e target, subs))
            in
            fail "reference %s is not of the form A[I1 + c1, ..., In + cn]"
              (Ps_lang.Pretty.expr_to_string r))
        (target_refs q)
    in
    (* Deduplicate. *)
    let distinct =
      List.fold_left (fun acc v -> if List.mem v acc then acc else v :: acc) [] vectors
      |> List.rev
    in
    (* A zero difference vector means A[x] depends on itself. *)
    if List.exists (fun v -> Array.for_all (fun c -> c = 0) v) distinct then
      fail "%s[x] references itself at the same point" target;
    { dep_eq = q; dep_indices = ixs; dep_vectors = distinct }

let pp_inequality ppf (d : int array) =
  (* Print as the paper does: "a·d > 0" expanded over symbolic a, b, c... *)
  let coeff_name i =
    if i < 26 then String.make 1 (Char.chr (Char.code 'a' + i))
    else Printf.sprintf "a%d" i
  in
  let first = ref true in
  Array.iteri
    (fun i c ->
      if c <> 0 then begin
        if !first then begin
          if c = 1 then Fmt.pf ppf "%s" (coeff_name i)
          else if c = -1 then Fmt.pf ppf "-%s" (coeff_name i)
          else Fmt.pf ppf "%d*%s" c (coeff_name i);
          first := false
        end
        else if c > 0 then
          if c = 1 then Fmt.pf ppf " + %s" (coeff_name i)
          else Fmt.pf ppf " + %d*%s" c (coeff_name i)
        else if c = -1 then Fmt.pf ppf " - %s" (coeff_name i)
        else Fmt.pf ppf " - %d*%s" (-c) (coeff_name i)
      end)
    d;
  if !first then Fmt.string ppf "0";
  Fmt.pf ppf " > 0"
