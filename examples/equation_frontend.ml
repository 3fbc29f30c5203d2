(* The paper's "ultimate goal" (§1): translate display-mathematics
   equations directly into PS modules.

     dune exec examples/equation_frontend.exe

   The paper's Equation (2) — the revised relaxation — is written below
   exactly as the mathematics reads, with every subscript and superscript
   as a subscript.  The translator produces the PS module, the scheduler
   shows it is fully iterative, and the hyperplane machinery then
   re-parallelizes it: the complete story from the printed equation to
   concurrent loops, with no PS written by hand. *)

let equation_2 =
  {|
relaxation2(InitialA[i,j], M, maxK) -> newA[i,j]
where i, j = 0 .. M+1; k = 2 .. maxK

# Equation (2) of the paper: for k > 1,
#   A_{k,i,j} = (A_{k,i,j-1} + A_{k,i-1,j} + A_{k-1,i,j+1} + A_{k-1,i+1,j}) / 4
A_{1,i,j}  = InitialA_{i,j}
A_{k,i,j}  = if i = 0 or j = 0 or i = M+1 or j = M+1
             then A_{k-1,i,j}
             else (A_{k,i,j-1} + A_{k,i-1,j}
                 + A_{k-1,i,j+1} + A_{k-1,i+1,j}) / 4
newA_{i,j} = A_{maxK,i,j}
|}

let () =
  let project = Psc.load_equations equation_2 in
  let em = Psc.default_module project in
  Fmt.pr "Generated PS module:@.%s@.@."
    (Psc.Pretty.module_to_string em.Psc.Elab.em_ast);

  let sc = Psc.schedule em in
  Fmt.pr "Natural schedule (fully iterative, as the paper derives):@.%s@.@."
    (Psc.flowchart_string sc);

  let project', tr = Psc.hyperplane ~target:"A" project in
  Fmt.pr "%s@." (Psc.Transform.derivation_to_string tr);
  let name = tr.Psc.Transform.tr_module.Psc.Ast.m_name in
  let em' = Psc.find_module project' name in
  let sc' = Psc.schedule ~sink:true ~trim:true em' in
  Fmt.pr "@.After the hyperplane transformation:@.%s@.@."
    (Psc.flowchart_string sc');
  Fmt.pr "Windows: %s@.@." (Psc.windows_string sc');

  (* And it runs. *)
  let m = 24 and maxk = 16 in
  let inputs = Ps_models.Models.relaxation_inputs ~m ~maxk in
  let r1 = Psc.run project ~inputs in
  let r2 = Psc.run ~name ~sink:true ~trim:true project' ~inputs in
  let worst = ref 0.0 in
  for i = 0 to m + 1 do
    for j = 0 to m + 1 do
      let d =
        abs_float
          (Psc.Exec.read_real (List.assoc "newA" r1.Psc.Exec.outputs) [| i; j |]
           -. Psc.Exec.read_real (List.assoc "newA" r2.Psc.Exec.outputs) [| i; j |])
      in
      if d > !worst then worst := d
    done
  done;
  Fmt.pr "max |iterative - wavefront| = %g@." !worst;
  (* The transformation reorders the same arithmetic: the grids agree
     bit for bit, or the example fails. *)
  if !worst <> 0.0 then exit 1
