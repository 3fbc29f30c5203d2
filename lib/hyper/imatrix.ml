(* Small exact integer matrices for the hyperplane coordinate change.

   Sizes are the nesting depth of a recurrence (2-4 in practice), so
   cofactor expansion is perfectly adequate and keeps everything exact. *)

type t = int array array  (* row-major, square *)

let dim (m : t) = Array.length m

let make n f : t = Array.init n (fun i -> Array.init n (fun j -> f i j))

let identity n : t = make n (fun i j -> if i = j then 1 else 0)

let of_rows rows : t =
  let n = List.length rows in
  let m = Array.of_list (List.map Array.of_list rows) in
  Array.iter (fun r -> if Array.length r <> n then invalid_arg "Imatrix.of_rows") m;
  m

let row (m : t) i = Array.copy m.(i)

(* Minor of m with row i and column j removed. *)
let minor (m : t) i j =
  let n = dim m in
  make (n - 1) (fun r c ->
      let r' = if r < i then r else r + 1 in
      let c' = if c < j then c else c + 1 in
      m.(r').(c'))

let rec det (m : t) =
  match dim m with
  | 0 -> 1
  | 1 -> m.(0).(0)
  | 2 -> (m.(0).(0) * m.(1).(1)) - (m.(0).(1) * m.(1).(0))
  | n ->
    let acc = ref 0 in
    for j = 0 to n - 1 do
      if m.(0).(j) <> 0 then begin
        let sign = if j mod 2 = 0 then 1 else -1 in
        acc := !acc + (sign * m.(0).(j) * det (minor m 0 j))
      end
    done;
    !acc

(* Inverse of a unimodular matrix (|det| = 1): the adjugate divided by the
   determinant stays integral. *)
let inverse (m : t) : t =
  let n = dim m in
  let d = det m in
  if abs d <> 1 then invalid_arg "Imatrix.inverse: matrix is not unimodular";
  let cof = make n (fun i j ->
      let sign = if (i + j) mod 2 = 0 then 1 else -1 in
      sign * det (minor m i j))
  in
  (* inverse = adjugate / det = transpose of cofactors / det *)
  make n (fun i j -> cof.(j).(i) / d)

let mul (a : t) (b : t) : t =
  let n = dim a in
  make n (fun i j ->
      let acc = ref 0 in
      for k = 0 to n - 1 do
        acc := !acc + (a.(i).(k) * b.(k).(j))
      done;
      !acc)

let apply (m : t) (v : int array) : int array =
  let n = dim m in
  Array.init n (fun i ->
      let acc = ref 0 in
      for j = 0 to n - 1 do
        acc := !acc + (m.(i).(j) * v.(j))
      done;
      !acc)

let equal (a : t) (b : t) =
  dim a = dim b && Array.for_all2 (fun r1 r2 -> r1 = r2) a b

let pp ppf (m : t) =
  Fmt.pf ppf "@[<v>%a@]"
    (Fmt.array ~sep:Fmt.cut (fun ppf r ->
         Fmt.pf ppf "[%a]" (Fmt.array ~sep:(Fmt.any " ") Fmt.int) r))
    m

let to_string m = Fmt.str "%a" pp m
