(* Static scheduling cost model.

   For each fork candidate of a flowchart (see [Policy.index]), estimate
   the work of one invocation of the nest — the number of equation
   evaluations per fork, *not* summed over enclosing DO loops, because
   the fork overhead is paid once per invocation — and decide the
   schedule shape:

     - below the parallel overhead threshold, or on a single-core host,
       run sequentially (this subsumes the W120 tiny-loop warning by
       construction: the nest the lint flags is the nest the model
       refuses to fork);
     - a perfect DOALL band ([Collapse.band]) with rectangular inner
       bounds flattens (collapse) for one big well-balanced deal;
     - a band whose inner bounds mention outer band variables is a
       trimmed wavefront: its extents are skewed and vanish at the
       sweep's corners, so flattening trades a balanced outer deal for
       per-point scheduling overhead — keep it nested (this is the
       recorded h3 steal+collapse regression, fixed by construction);
     - work-stealing guided chunks otherwise, with a chunk floor on big
       uniform spaces and a raised wake threshold on modest nests so a
       small fork never pays a full pool broadcast.

   Bounds under enclosing DO loops may mention the DO variable (trimmed
   nests); those are estimated at the midpoint of the enclosing range,
   a representative invocation of the steady state. *)

open Ps_sem

let overhead = 256
(* Equation evaluations per invocation below which forking is a loss:
   roughly the work a worker retires while one pool wake + deal round
   trips (4x the runtime's wake threshold).  Calibrated against the
   recorded trajectory: the h3 m=16 wavefront (~128 evals/epoch) must
   stay sequential, the m=32 one (~512) must fork. *)

(* A band is rectangular when no member's bounds mention an outer band
   variable: every slice of the flattened space has the same extent, so
   a flat deal is perfectly balanced. *)
let rectangular (chain : Flowchart.loop list) =
  let rec go outer = function
    | [] -> true
    | (l : Flowchart.loop) :: rest ->
      let fv =
        Ps_lang.Ast.free_vars l.Flowchart.lp_range.Stypes.sr_lo
        @ Ps_lang.Ast.free_vars l.Flowchart.lp_range.Stypes.sr_hi
      in
      (not (List.exists (fun v -> List.mem v fv) outer))
      && go (l.Flowchart.lp_var :: outer) rest
  in
  go [] chain

type estimate = {
  e_work : float;   (* equation evals per invocation of the nest *)
  e_iters : int;    (* parallel indices dealt to the pool per fork *)
  e_depth : int;    (* band depth (1 = nothing to collapse) *)
  e_rect : bool;
}

let lookup env v = List.assoc_opt v env

let eval env e = Analysis.eval_bound (lookup env) e

let extent env (l : Flowchart.loop) =
  let lo = eval env l.Flowchart.lp_range.Stypes.sr_lo in
  let hi = eval env l.Flowchart.lp_range.Stypes.sr_hi in
  max 0 (hi - lo + 1)

let midpoint env (r : Stypes.subrange) =
  let lo = eval env r.Stypes.sr_lo in
  let hi = eval env r.Stypes.sr_hi in
  lo + ((hi - lo) / 2)

(* Estimate one invocation of the nest headed by [l], under [env]
   holding scalar inputs plus midpoints of enclosing binders.
   @raise Analysis.Unsupported when a bound cannot be evaluated. *)
let estimate env (l : Flowchart.loop) collapse : estimate =
  let cost = Analysis.of_flowchart ~env [ Flowchart.D_loop l ] in
  let chain = Collapse.band l in
  let rect = rectangular chain in
  let iters =
    if collapse && List.length chain >= 2 then
      (* Flattened deal: the product of the band extents, inner ones
         taken at midpoints of the outer ones for skewed bands. *)
      let rec go env = function
        | [] -> 1
        | m :: rest ->
          extent env m
          * go ((m.Flowchart.lp_var, midpoint env m.Flowchart.lp_range) :: env) rest
      in
      go env chain
    else extent env l
  in
  { e_work = cost.Analysis.work; e_iters = iters;
    e_depth = List.length chain; e_rect = rect }

let decide ~cores (l : Flowchart.loop) (est : estimate option) :
    Policy.decision =
  if cores <= 1 then Policy.sequential ~why:"single-core host"
  else
    match est with
    | None -> (
      (* Unanalyzable bounds: assume the space is big enough to fork,
         but only flatten bands we can prove rectangular. *)
      let chain = Collapse.band l in
      let rect = List.length chain >= 2 && rectangular chain in
      Policy.parallel ~steal:true ~collapse:rect
        ~why:"unanalyzable bounds; assumed wide" ())
    | Some est ->
      if est.e_work < float_of_int overhead then
        Policy.sequential
          ~why:
            (Printf.sprintf "work %.0f below overhead %d" est.e_work overhead)
      else begin
        let collapse = est.e_depth >= 2 && est.e_rect in
        let why =
          if collapse then "rectangular band: flat deal"
          else if est.e_depth >= 2 then "skewed wavefront band: keep nested"
          else "wide nest"
        in
        (* Big uniform spaces get a chunk floor so the guided deal does
           not degenerate into per-point claims near the tail; modest
           nests raise the wake threshold so the fork never pays a full
           pool broadcast. *)
        let chunk_min =
          if est.e_iters >= cores * 64 then
            Some (max 1 (est.e_iters / (cores * 16)))
          else None
        in
        let wake =
          if est.e_work < float_of_int (4 * overhead) then
            Some (2 * max 1 est.e_iters)
          else None
        in
        Policy.parallel ~steal:true ~collapse ?chunk_min ?wake ~why ()
      end

(* Decide each fork candidate in order, under the scalar inputs plus
   the midpoints of its enclosing DO and SOLVE binders (a solved value
   is data-dependent; its range's midpoint stands in).  A binder whose
   bounds cannot be evaluated stays unbound. *)
let static ~(env : (string * int) list) ~cores (fc : Flowchart.t) :
    Policy.table =
  let bind env (b : Flowchart.binder) =
    let range =
      match b with
      | Flowchart.B_loop l -> l.Flowchart.lp_range
      | Flowchart.B_solve s -> s.Flowchart.sv_range
    in
    match midpoint env range with
    | mid -> (Flowchart.binder_var b, mid) :: env
    | exception Analysis.Unsupported _ -> env
  in
  let entry (c : Policy.candidate) =
    let env = List.fold_left bind env c.Policy.c_binders in
    let est =
      match estimate env c.Policy.c_loop true with
      | est -> Some est
      | exception Analysis.Unsupported _ -> None
    in
    (c.Policy.c_key, decide ~cores c.Policy.c_loop est)
  in
  { Policy.t_source = Policy.Static; t_host_cores = cores;
    t_entries = List.map entry (Policy.index fc) }
