(* The compile workload's corpus, drawn from the seed: the paper's and
   the repository's 13 model programs, a draw of the differential
   fuzzer's generator, and synthesized multi-equation modules whose
   equation counts cover every size on a ladder up to [max_eqs].

   The ladder matters because the scheduling passes are superlinear in
   the equation count (fusion is cubic, scheduling and SCC quadratic):
   paper-sized modules take under a millisecond for the whole compile,
   while the top of the ladder takes tens.  Every size from [min_eqs]
   to [max_eqs] appears once, so no percentile of the op times falls
   into a gap between two discrete sizes, and the seed only changes
   what each module computes, not its size or its dependence graph. *)

module Rng = Ps_fuzz.Gen.Rng

type entry = {
  e_name : string;
  e_src : string;
  e_target : string option;  (* the section 4 transform's target, if any *)
  e_emit : bool;  (* false where the C back end refuses (records) *)
}

(* The 13 models, with what applies to each pinned here rather than
   probed in set-up: the local array the section 4 transform takes (the
   first one it accepts, the fuzzer's rule) and whether the C back end
   emits the program (it refuses only particles, the record program).
   Set-up never asks the code under measurement what to measure, so a
   back end or a transform that starts refusing one of these fails that
   program's ops instead of quietly making the workload smaller. *)
let models =
  Ps_models.Models.
    [ ("jacobi", jacobi, Some "A", true); ("seidel", seidel, Some "A", true);
      ("heat1d", heat1d, Some "U", true); ("matmul", matmul, Some "S", true);
      ("binomial", binomial, Some "T", true);
      ("prefix_sum", prefix_sum, Some "Acc", true);
      ("two_module", two_module, None, true);
      ("classify", classify, Some "Cnt", true);
      ("particles", particles, None, false); ("lcs", lcs, Some "L", true);
      ("skewed", skewed, Some "W", true);
      ("strided_copy", strided_copy, Some "C", true);
      ("param_recurrence", param_recurrence, None, true) ]

let gen_count = 40

let min_eqs = 4

(* With this generator's mix, fusion alone takes 20-30 ms at 50
   equations and 160-280 ms at 100; the ladder stops at 64 so that one
   pass over the corpus stays under a second. *)
let max_eqs = 64

(* ------------------------------------------------------------------ *)
(* Synthesized modules *)

(* A module of exactly [n] equations over 1-D arrays on eight index
   ranges (I = 0..N+1 and seven sub-ranges of it), 2-D arrays Q on
   [I, J] and windowed time recurrences S.  An equation on a range
   reads recent arrays of that range or of I, which covers them all, so
   long modules hold chains the fusion pass merges as well as stencils,
   scans and recurrences it must keep apart.  Spreading the loops over
   several ranges keeps the number of same-range sibling loops, which
   fusion compares pairwise, near what hand-written modules have. *)
let ranges =
  [| ("I", "0", "N+1"); ("Ra", "1", "N"); ("Rb", "2", "N"); ("Rc", "1", "N-1");
     ("Rd", "2", "N-1"); ("Re", "3", "N"); ("Rf", "0", "N"); ("Rg", "1", "N+1") |]

(* Ranges inside 1 .. N, where reading I-arrays at +-1 stays in bounds. *)
let inner = [ 1; 2; 3; 4; 5 ]

(* [shape] draws the structure (equation kinds, ranges, which arrays
   are read), fixed per size so that every seed schedules the same
   graphs; [rng] draws the seed's coefficients and operators. *)
let synth ~shape rng ~n =
  let decls = Buffer.create 1024 and eqs = Buffer.create 4096 in
  let dpf fmt = Printf.ksprintf (Buffer.add_string decls) fmt in
  let epf fmt = Printf.ksprintf (Buffer.add_string eqs) fmt in
  let count = ref 0 in
  (* Arrays per range, most recent first; range 0 is I. *)
  let vs = Array.make (Array.length ranges) [] in
  vs.(0) <- [ "V1" ];
  let qs = ref [ "Q1" ] in
  let fresh = ref 1 in
  let name p =
    incr fresh;
    Printf.sprintf "%s%d" p !fresh
  in
  (* Recent arrays are read more often: most reads extend a chain. *)
  let pick l =
    let k = min (List.length l) 6 in
    List.nth l (Rng.int shape k)
  in
  (* An array readable on range [r]: one of its own, or one on I. *)
  let pick_on r =
    if r > 0 && vs.(r) <> [] && Rng.bool shape then pick vs.(r) else pick vs.(0)
  in
  let rname r = let n, _, _ = ranges.(r) in n in
  let coef () = Rng.pick rng [ "0.5"; "0.25"; "0.75"; "2.0"; "1.5" ] in
  let op () = Rng.pick rng [ "+"; "-"; "*" ] in
  let eq fmt =
    incr count;
    epf fmt
  in
  let new_v r =
    let v = name "V" in
    dpf "  %s: array[%s] of real;\n" v (rname r);
    vs.(r) <- v :: vs.(r);
    v
  in
  dpf "  V1: array[I] of real;\n  Q1: array[I, J] of real;\n";
  eq "  V1[I] = X[I] * %s;\n" (coef ());
  eq "  Q1[I, J] = Y[I, J] + V1[J];\n";
  (* Two equations are kept for the results. *)
  while !count < n - 2 do
    let room = n - 2 - !count in
    match Rng.int shape 10 with
    | 0 | 1 | 2 ->
      let r = Rng.int shape (Array.length ranges) in
      let a = pick_on r and b = pick_on r in
      let v = new_v r and ix = rname r in
      eq "  %s[%s] = %s[%s] %s %s[%s] * %s;\n" v ix a ix (op ()) b ix (coef ())
    | 3 | 4 ->
      let r = Rng.pick shape inner in
      let a = pick vs.(0) in
      let v = new_v r and ix = rname r in
      eq "  %s[%s] = (%s[%s-1] + %s[%s+1]) * %s;\n" v ix a ix a ix (coef ())
    | 5 when room >= 2 ->
      let a = pick vs.(0) in
      let v = new_v 0 in
      eq "  %s[0] = %s[0];\n" v a;
      eq "  %s[Rg] = %s[Rg-1] * %s + %s[Rg];\n" v v (coef ()) a
    | 6 | 7 ->
      let q = name "Q" in
      dpf "  %s: array[I, J] of real;\n" q;
      if Rng.bool shape then
        eq "  %s[I, J] = %s[I, J] %s %s[J] * %s;\n" q (pick !qs) (op ())
          (pick vs.(0)) (coef ())
      else begin
        let a = pick !qs in
        eq
          "  %s[I, J] = if (I = 0) or (J = 0) or (I = N+1) or (J = N+1) then %s[I, J]\n\
          \             else (%s[I-1, J] + %s[I, J+1]) * %s;\n"
          q a a a (coef ())
      end;
      qs := q :: !qs
    | _ when room >= 3 ->
      let s = name "S" and a = pick vs.(0) in
      dpf "  %s: array [1 .. T] of array[I] of real;\n" s;
      eq "  %s[1] = %s;\n" s a;
      eq
        "  %s[K, I] = if (I = 0) or (I = N+1) then %s[K-1, I]\n\
        \             else (%s[K-1, I-1] + %s[K-1, I+1]) * %s;\n"
        s s s s (coef ());
      let v = new_v 0 in
      eq "  %s[I] = %s[T, I];\n" v s
    | _ ->
      let a = pick vs.(0) in
      let v = new_v 0 in
      eq "  %s[I] = %s[I] + %s;\n" v a (coef ())
  done;
  eq "  R1 = %s;\n" (List.hd vs.(0));
  eq "  R2 = %s;\n" (List.hd !qs);
  let types =
    Array.to_list ranges
    |> List.filter (fun (n, _, _) -> n <> "I")
    |> List.map (fun (n, lo, hi) -> Printf.sprintf "  %s = %s .. %s;\n" n lo hi)
    |> String.concat ""
  in
  Printf.sprintf
    "Syn: module (X: array[I] of real; Y: array[I, J] of real; N: int; T: int):\n\
    \  [R1: array[I] of real; R2: array[I, J] of real];\n\
     type\n\
    \  I, J = 0 .. N+1;\n\
     %s\
    \  K = 2 .. T;\n\
     var\n\
     %sdefine\n\
     %send Syn;\n"
    types (Buffer.contents decls) (Buffer.contents eqs)

(* ------------------------------------------------------------------ *)

(* The first local array the section 4 transform accepts in a fuzzer
   draw: the fuzzer's own rule, the one place where set-up asks the
   transform.  A draw's shape does not tell whether the transform takes
   it, so nothing can be pinned; the 13 models are. *)
let fuzz_target src =
  let t = Psc.load_string src in
  List.find_map
    (fun (d : Psc.Elab.data) ->
      if Psc.Stypes.dims d.Psc.Elab.d_ty = [] then None
      else
        match Psc.hyperplane ~target:d.Psc.Elab.d_name t with
        | _ -> Some d.Psc.Elab.d_name
        | exception Psc.Error _ -> None)
    (Psc.default_module t).Psc.Elab.em_locals

(* The corpus of one seed, in a seeded order.  Synthesized modules get
   no transform: their recurrences are the scheduler's, not section 4's. *)
let make ~seed =
  let rng = Rng.create seed in
  let fixed =
    List.map
      (fun (e_name, e_src, e_target, e_emit) -> { e_name; e_src; e_target; e_emit })
      models
    (* The generator and the ladder write no records, so the C back end
       must take every one of them. *)
    @ List.init gen_count (fun i ->
          let e_src =
            Ps_fuzz.Gen.render (Ps_fuzz.Gen.generate (Rng.split seed i))
          in
          { e_name = Printf.sprintf "gen%d" i; e_src;
            e_target = fuzz_target e_src; e_emit = true })
  in
  let ladder =
    List.init (max_eqs - min_eqs + 1) (fun i ->
        let n = min_eqs + i in
        { e_name = Printf.sprintf "syn%d" n;
          e_src = synth ~shape:(Rng.create n) rng ~n; e_target = None;
          e_emit = true })
  in
  let all = Array.of_list (fixed @ ladder) in
  (* Fisher-Yates with the seed's stream. *)
  for i = Array.length all - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let x = all.(i) in
    all.(i) <- all.(j);
    all.(j) <- x
  done;
  all
