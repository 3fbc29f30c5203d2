(* Edge label attributes (paper Fig. 2).

   Every edge into or out of an array data node carries, per dimension of
   that array, the class of the subscript expression used there:

   - "I"              — the aligned index variable itself;
   - "I - constant"   — the index variable plus a constant offset (the
                        paper's class covers negative offsets; we keep the
                        signed offset and let the scheduler decide);
   - bound constants  — a subscript provably equal to the dimension's lower
                        or upper declared bound, e.g. [A[maxK]]; the upper
                        bound case drives virtual-dimension rule 2 (§3.4);
   - whole slices     — the dimension is not subscripted at all;
   - anything else    — "any other expression".

   The "position in target" attribute of Fig. 2 is [target_pos]: the index
   of the variable within the equation's loop-index list. *)

open Ps_sem

type sub_exp =
  | Affine of { var : string; offset : int; target_pos : int }
      (* var + offset, where var is the equation index at [target_pos] *)
  | Linear of {
      var : string;
      coeff : int;
      target_pos : int;
      params : (string * int) list;  (* scalar-parameter terms, sorted *)
      const : int;
    }
      (* coeff*var + Σ ci*Pi + const with (coeff, params) ≠ (1, []) — the
         symbolic affine class the distance analyzer solves over; Fig. 2
         would call it "other" *)
  | Const_low                (* equals the dimension's lower bound *)
  | Const_mid of int         (* equals the lower bound + a positive constant *)
  | Const_high               (* equals the dimension's upper bound *)
  | Slice                    (* dimension left unsubscripted *)
  | Opaque                   (* any other expression *)

(* Classify one subscript expression [e] appearing at a dimension with
   subrange [sr], inside equation [q]. *)
let classify (q : Elab.eq) (sr : Stypes.subrange) (e : Ps_lang.Ast.expr) : sub_exp =
  let index_pos v =
    let rec find i = function
      | [] -> None
      | ix :: rest ->
        if String.equal ix.Elab.ix_var v then Some i else find (i + 1) rest
    in
    find 0 q.Elab.q_indices
  in
  match Linexpr.of_expr e with
  | None -> Opaque
  | Some l -> (
    (* Split the linear form into index-variable terms and the rest. *)
    let index_terms, param_terms =
      List.partition (fun (v, _) -> index_pos v <> None) l.Linexpr.terms
    in
    match index_terms with
    | [ (v, 1) ] when param_terms = [] ->
      let target_pos = Option.get (index_pos v) in
      Affine { var = v; offset = l.Linexpr.const; target_pos }
    | [ (v, a) ] ->
      (* A single index variable with a non-unit coefficient or mixed
         with scalar parameters: the symbolic class the distance
         analyzer can still solve over. *)
      let target_pos = Option.get (index_pos v) in
      Linear
        { var = v;
          coeff = a;
          target_pos;
          params = param_terms;
          const = l.Linexpr.const }
    | [] -> (
      (* No index variables: compare against the declared bounds. *)
      let diff bound =
        match Linexpr.of_expr bound with
        | Some b -> Linexpr.diff_const l b
        | None -> None
      in
      if diff sr.Stypes.sr_lo = Some 0 then Const_low
      else if diff sr.Stypes.sr_hi = Some 0 then Const_high
      else (
        match diff sr.Stypes.sr_lo with
        | Some k when k > 0 -> Const_mid k
        | _ -> Opaque))
    | _ -> Opaque)

(* The symbolic affine view of an aligned subscript: [a*var + (params, const)].
   The Affine class is the [a = 1], no-parameter special case. *)
let linear_parts = function
  | Affine { var; offset; target_pos } ->
    Some (var, 1, target_pos, { Linexpr.const = offset; terms = [] })
  | Linear { var; coeff; target_pos; params; const } ->
    Some (var, coeff, target_pos, { Linexpr.const; terms = params })
  | _ -> None

let to_linexpr s =
  match linear_parts s with
  | Some (var, coeff, _, rest) ->
    Some (Linexpr.add (Linexpr.scale coeff (Linexpr.of_var var)) rest)
  | None -> None

let pp ppf = function
  | Affine { var; offset = 0; _ } -> Fmt.pf ppf "%s" var
  | Affine { var; offset; _ } when offset < 0 -> Fmt.pf ppf "%s - %d" var (-offset)
  | Affine { var; offset; _ } -> Fmt.pf ppf "%s + %d" var offset
  | Linear _ as s ->
    (match to_linexpr s with
     | Some l -> Linexpr.pp ppf l
     | None -> Fmt.string ppf "<linear>")
  | Const_low -> Fmt.string ppf "<low bound>"
  | Const_mid k -> Fmt.pf ppf "<low bound + %d>" k
  | Const_high -> Fmt.string ppf "<high bound>"
  | Slice -> Fmt.string ppf "<slice>"
  | Opaque -> Fmt.string ppf "<other>"

let to_string s = Fmt.str "%a" pp s

(* The paper's three-way classification, for display (Fig. 2). *)
let class_name = function
  | Affine { offset = 0; _ } -> "I"
  | Affine { offset; _ } when offset < 0 -> "I - constant"
  | Affine _ -> "other (I + constant)"
  | Linear _ -> "other (linear)"
  | Const_low -> "other (lower bound)"
  | Const_mid _ -> "other (lower bound + constant)"
  | Const_high -> "other (upper bound)"
  | Slice -> "slice"
  | Opaque -> "other"
