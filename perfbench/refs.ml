(* Independent references: the paper's three kernels as plain OCaml
   loop nests, sharing nothing with the interpreter but the inputs.
   Every kernel run and every served `run` answer is compared with them
   bit for bit. *)

(* Fig. 1, Jacobi: every stencil read from sweep K-1.  [init] is the
   (M+2) x (M+2) grid, row-major; the result is A[maxK]. *)
let jacobi ~m ~maxk (init : float array) =
  let n = m + 2 in
  let prev = ref (Array.copy init) and cur = ref (Array.make (n * n) 0.0) in
  for _ = 2 to maxk do
    let p = !prev and c = !cur in
    for i = 0 to m + 1 do
      for j = 0 to m + 1 do
        let x = (i * n) + j in
        c.(x) <-
          (if i = 0 || j = 0 || i = m + 1 || j = m + 1 then p.(x)
           else (p.(x - 1) +. p.(x - n) +. p.(x + 1) +. p.(x + n)) /. 4.0)
      done
    done;
    prev := c;
    cur := p
  done;
  !prev

(* Section 4, Seidel: west and north neighbours from the current sweep.
   Updating one grid in place in row-major order reads exactly those. *)
let seidel ~m ~maxk (init : float array) =
  let n = m + 2 in
  let a = Array.copy init in
  for _ = 2 to maxk do
    for i = 1 to m do
      for j = 1 to m do
        let x = (i * n) + j in
        a.(x) <- (a.(x - 1) +. a.(x - n) +. a.(x + 1) +. a.(x + n)) /. 4.0
      done
    done
  done;
  a

(* LCS length of [x] and [y] (1-based in the module, 0-based here),
   keeping two rows of the table. *)
let lcs (x : int array) (y : int array) =
  let n = Array.length x in
  let prev = ref (Array.make (n + 1) 0) and cur = ref (Array.make (n + 1) 0) in
  for i = 1 to n do
    let p = !prev and c = !cur in
    c.(0) <- 0;
    for j = 1 to n do
      c.(j) <-
        (if x.(i - 1) = y.(j - 1) then p.(j - 1) + 1 else max p.(j) c.(j - 1))
    done;
    prev := c;
    cur := p
  done;
  !prev.(n)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Row-major elements of an interpreter grid over [0..M+1]^2. *)
let grid_values ~m (v : Psc.Value.value) =
  let n = m + 2 in
  Array.init (n * n) (fun x -> Psc.Exec.read_real v [| x / n; x mod n |])

let grid_matches ~m v (expected : float array) =
  let got = grid_values ~m v in
  Array.length got = Array.length expected
  && Array.for_all2 same_bits got expected

(* The emitted C main() prints, per result, the sum of its elements in
   row-major order; the reference sums the same order. *)
let checksum (a : float array) = Array.fold_left ( +. ) 0.0 a
