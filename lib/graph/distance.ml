(* Symbolic dependence distances between a defining and a using
   subscript of the same array dimension.

   The paper's Fig. 2 classifier stops at "I" and "I - constant": any
   other subscript kills loop-level parallelism for the whole nest.
   This analyzer solves the aligned classes [Label.Affine] and
   [Label.Linear] — i.e. subscripts of the form [a*I + Σ ci*Pi + c]
   over one loop index and the module's scalar parameters — for the
   iteration distance between the write and the read:

     def writes element  a_d*i + r_d   at iteration i
     use reads element   a_u*j + r_u   at iteration j

   A dependence exists when the two hit the same element, so the
   distance j - i is the solution of [a_d*i + r_d = a_u*j + r_u].
   Signs follow the verifier's convention: positive means the read
   happens a later iteration than the write (forward, legal in an
   iterative loop); the scheduler's group partition needs the exact
   value, the inspector/executor path its parameter form.

   Three classic tests decide the lattice point:

   - exact solve     — equal coefficients, constant difference k:
                       a | k gives the exact distance k/a, otherwise
                       there is no integer solution at all;
   - GCD test        — different coefficients a_d, a_u: an integer
                       solution requires gcd(a_d, a_u) to divide the
                       constant difference;
   - Banerjee bounds — value ranges of the two subscripts over the
                       loop bounds provably disjoint (via the bounded
                       Farkas certificate in [Linexpr.prove_nonneg]). *)

open Ps_sem

type t =
  | Exact of int          (* distance is this known constant *)
  | Form of Linexpr.t     (* distance is this parameter expression *)
  | Independent           (* provably never the same element *)
  | Unknown               (* the solver cannot classify the pair *)

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

(* Non-emptiness facts [hi - lo >= 0] of declared subranges, the
   assumptions the Farkas certificate search works from. *)
let facts (srs : Stypes.subrange list) : Linexpr.t list =
  List.filter_map
    (fun (sr : Stypes.subrange) ->
      match Linexpr.of_expr sr.Stypes.sr_lo, Linexpr.of_expr sr.Stypes.sr_hi with
      | Some lo, Some hi -> Some (Linexpr.sub hi lo)
      | _ -> None)
    srs

let bounds_of_subrange (sr : Stypes.subrange) : (Linexpr.t * Linexpr.t) option =
  match Linexpr.of_expr sr.Stypes.sr_lo, Linexpr.of_expr sr.Stypes.sr_hi with
  | Some lo, Some hi -> Some (lo, hi)
  | _ -> None

(* The value range of [a*I + r] for I in [lo, hi]. *)
let value_range a (lo, hi) r =
  if a >= 0 then (Linexpr.add (Linexpr.scale a lo) r, Linexpr.add (Linexpr.scale a hi) r)
  else (Linexpr.add (Linexpr.scale a hi) r, Linexpr.add (Linexpr.scale a lo) r)

let solve ?bounds ?(assumptions = []) ~(def : Label.sub_exp)
    ~(use : Label.sub_exp) () : t =
  match Label.linear_parts def, Label.linear_parts use with
  | Some (_, ad, _, rd), Some (_, au, _, ru) when ad <> 0 && au <> 0 ->
    let delta = Linexpr.sub rd ru in
    let exact_or_form () =
      if ad = au then
        match Linexpr.const_value delta with
        | Some k -> if k mod ad = 0 then Exact (k / ad) else Independent
        | None ->
          if ad = 1 then Form delta
          else if ad = -1 then Form (Linexpr.neg delta)
          else Unknown
      else if
        (* GCD test: a_d*i - a_u*j = -(r_d - r_u) needs gcd | delta. *)
        match Linexpr.const_value delta with
        | Some k -> k mod gcd ad au <> 0
        | None -> false
      then Independent
      else Unknown
    in
    (match exact_or_form () with
     | Unknown -> (
       (* Banerjee-style fallback: the two value ranges over the loop
          bounds provably never meet. *)
       match bounds with
       | None -> Unknown
       | Some b ->
         let dmin, dmax = value_range ad b rd in
         let umin, umax = value_range au b ru in
         let gt x y =
           Linexpr.prove_nonneg ~assumptions
             (Linexpr.add_const (-1) (Linexpr.sub x y))
         in
         if gt dmin umax || gt umin dmax then Independent else Unknown)
     | r -> r)
  | _ -> Unknown

(* The modulus of the group partition induced by a set of carried
   distances: iterations i and i + d always land in the same residue
   class mod d, so classes mod gcd(d1, ..., dk) are mutually
   independent and a DOALL over the classes (sequential within each) is
   legal.  [Some 0] means no carried dependence at all (pure DOALL);
   [None] means some distance is not an exact constant. *)
let group_modulus (ds : t list) : int option =
  List.fold_left
    (fun acc d ->
      match acc, d with
      | None, _ -> None
      | Some g, Exact k -> Some (gcd g k)
      | Some g, Independent -> Some g
      | Some _, (Form _ | Unknown) -> None)
    (Some 0) ds

let pp ppf = function
  | Exact k -> Fmt.pf ppf "%d" k
  | Form l -> Linexpr.pp ppf l
  | Independent -> Fmt.string ppf "independent"
  | Unknown -> Fmt.string ppf "unknown"
