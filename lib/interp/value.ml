(* Runtime values and the array store.

   Arrays are flat, contiguous and unboxed (float array / int array /
   bytes), with one stride per dimension.  A *virtual* dimension (paper
   §3.4) is allocated as a window of [w] planes instead of its full
   extent; its index is mapped through [mod w].  The store keeps a
   per-slab count of allocated words so the space-reuse experiments can
   report exactly what the paper's §3.4 and §4 claim (window 2 vs. full
   maxK planes; 3·maxK·M vs. 2·M·M). *)

open Ps_sem

type elem_kind = KInt | KReal | KBool | KEnum of string

type payload =
  | PFloat of float array
  | PInt of int array
  | PBool of Bytes.t
  | PBox of box array  (* records and other boxed elements *)

and box =
  | Bnone
  | Brecord of (string * scalar) list

and scalar =
  | Sc_int of int
  | Sc_real of float
  | Sc_bool of bool
  | Sc_enum of string * int  (* enum type, ordinal *)
  | Sc_record of (string * scalar) list

type dim_info = {
  di_lo : int;       (* declared lower bound *)
  di_extent : int;   (* declared number of elements *)
  di_window : int;   (* allocated planes: = di_extent unless virtual *)
}

type slab = {
  s_name : string;
  s_kind : elem_kind;
  s_dims : dim_info array;
  s_strides : int array;  (* in elements, over allocated (window) sizes *)
  s_data : payload;
}

(* A general value: scalars, whole arrays (module arguments/results),
   records. *)
type value =
  | Vscalar of scalar
  | Varray of slab

let kind_of_ty (ty : Stypes.ty) : elem_kind =
  match ty with
  | Stypes.Scalar Stypes.Sint -> KInt
  | Stypes.Scalar Stypes.Sreal -> KReal
  | Stypes.Scalar Stypes.Sbool -> KBool
  | Stypes.Scalar (Stypes.Senum e) -> KEnum e
  | Stypes.Record _ | Stypes.Array _ -> KInt (* boxed separately *)

let kind_name = function
  | KInt -> "int"
  | KReal -> "real"
  | KBool -> "bool"
  | KEnum _ -> "enum"

(* ------------------------------------------------------------------ *)
(* Slab construction *)

let alloc_payload kind boxed size =
  if boxed then PBox (Array.make size Bnone)
  else
    match kind with
    | KReal -> PFloat (Array.make size 0.0)
    | KInt | KEnum _ -> PInt (Array.make size 0)
    | KBool -> PBool (Bytes.make size '\000')

let make_slab ~name ~(elem : Stypes.ty) ~(dims : (int * int * int) list) : slab =
  (* dims: (lo, extent, window) per dimension *)
  let kind = kind_of_ty elem in
  let boxed = match elem with Stypes.Record _ -> true | _ -> false in
  let dim_infos =
    Array.of_list
      (List.map (fun (lo, extent, window) -> { di_lo = lo; di_extent = extent; di_window = window }) dims)
  in
  let n = Array.length dim_infos in
  let strides = Array.make n 1 in
  for i = n - 2 downto 0 do
    strides.(i) <- strides.(i + 1) * dim_infos.(i + 1).di_window
  done;
  let size = if n = 0 then 1 else strides.(0) * dim_infos.(0).di_window in
  { s_name = name;
    s_kind = kind;
    s_dims = dim_infos;
    s_strides = strides;
    s_data = alloc_payload kind boxed size }

let allocated_words (s : slab) =
  match s.s_data with
  | PFloat a -> Array.length a
  | PInt a -> Array.length a
  | PBool b -> Bytes.length b
  | PBox a -> Array.length a

let ndims s = Array.length s.s_dims

(* The one row-major walk over a slab's declared box (last subscript
   fastest): the order the emitted C harness fills inputs and sums
   results in.  [ix] is reused between calls. *)
let iter_box (s : slab) f =
  let n = ndims s in
  let ix = Array.make n 0 in
  let rec go p =
    if p = n then f ix
    else
      let di = s.s_dims.(p) in
      for v = di.di_lo to di.di_lo + di.di_extent - 1 do
        ix.(p) <- v;
        go (p + 1)
      done
  in
  go 0

(* Always-nonnegative (Euclidean) remainder.  OCaml's [mod] takes the
   sign of the dividend, so a negative relative index — an [I - c] read
   below the dimension's lower bound, reachable on the unchecked fast
   paths — would otherwise produce a negative plane offset and address
   outside the slab.  Window subscripts must always land inside the
   allocated window. *)
let wrap_window rel w =
  let r = rel mod w in
  if r < 0 then r + w else r

(* Flat offset of a subscript vector, mapping virtual dimensions through
   their window. *)
let offset (s : slab) (idx : int array) =
  let n = Array.length s.s_dims in
  let off = ref 0 in
  for p = 0 to n - 1 do
    let di = s.s_dims.(p) in
    let rel = idx.(p) - di.di_lo in
    let rel =
      if di.di_window = di.di_extent then rel else wrap_window rel di.di_window
    in
    off := !off + (rel * s.s_strides.(p))
  done;
  !off

exception Bounds of string

let check_bounds (s : slab) (idx : int array) =
  let n = Array.length s.s_dims in
  if Array.length idx <> n then
    raise (Bounds (Printf.sprintf "%s: %d subscripts for %d dimensions" s.s_name (Array.length idx) n));
  for p = 0 to n - 1 do
    let di = s.s_dims.(p) in
    if idx.(p) < di.di_lo || idx.(p) >= di.di_lo + di.di_extent then
      raise
        (Bounds
           (Printf.sprintf "%s: subscript %d = %d outside %d..%d" s.s_name (p + 1)
              idx.(p) di.di_lo (di.di_lo + di.di_extent - 1)))
  done

let get_float (s : slab) off =
  match s.s_data with
  | PFloat a -> Array.unsafe_get a off
  | PInt a -> float_of_int (Array.unsafe_get a off)
  | PBool _ | PBox _ -> invalid_arg "get_float"

let get_int (s : slab) off =
  match s.s_data with
  | PInt a -> Array.unsafe_get a off
  | PFloat a -> int_of_float (Array.unsafe_get a off)
  | PBool _ | PBox _ -> invalid_arg "get_int"

let get_bool (s : slab) off =
  match s.s_data with
  | PBool b -> Bytes.unsafe_get b off <> '\000'
  | PFloat _ | PInt _ | PBox _ -> invalid_arg "get_bool"

let set_float (s : slab) off v =
  match s.s_data with
  | PFloat a -> Array.unsafe_set a off v
  | PInt a -> Array.unsafe_set a off (int_of_float v)
  | PBool _ | PBox _ -> invalid_arg "set_float"

let set_int (s : slab) off v =
  match s.s_data with
  | PInt a -> Array.unsafe_set a off v
  | PFloat a -> Array.unsafe_set a off (float_of_int v)
  | PBool _ | PBox _ -> invalid_arg "set_int"

let set_bool (s : slab) off v =
  match s.s_data with
  | PBool b -> Bytes.unsafe_set b off (if v then '\001' else '\000')
  | PFloat _ | PInt _ | PBox _ -> invalid_arg "set_bool"

let get_scalar (s : slab) (idx : int array) : scalar =
  let off = offset s idx in
  match s.s_data, s.s_kind with
  | PFloat a, _ -> Sc_real a.(off)
  | PInt a, KEnum e -> Sc_enum (e, a.(off))
  | PInt a, _ -> Sc_int a.(off)
  | PBool b, _ -> Sc_bool (Bytes.get b off <> '\000')
  | PBox a, _ -> (
    match a.(off) with
    | Brecord fields -> Sc_record fields
    | Bnone -> Sc_record [])

let set_scalar (s : slab) (idx : int array) (v : scalar) =
  let off = offset s idx in
  match s.s_data, v with
  | PFloat a, Sc_real x -> a.(off) <- x
  | PFloat a, Sc_int x -> a.(off) <- float_of_int x
  | PInt a, Sc_int x -> a.(off) <- x
  | PInt a, Sc_enum (_, x) -> a.(off) <- x
  | PBool b, Sc_bool x -> Bytes.set b off (if x then '\001' else '\000')
  | PBox a, Sc_record fields -> a.(off) <- Brecord fields
  | _ -> invalid_arg ("set_scalar: kind mismatch on " ^ s.s_name)

(* ------------------------------------------------------------------ *)
(* Scalar helpers *)

let as_int = function
  | Sc_int n -> n
  | Sc_real f -> int_of_float f
  | Sc_enum (_, n) -> n
  | Sc_bool _ | Sc_record _ -> invalid_arg "as_int"

let as_float = function
  | Sc_real f -> f
  | Sc_int n -> float_of_int n
  | Sc_bool _ | Sc_enum _ | Sc_record _ -> invalid_arg "as_float"

let as_bool = function
  | Sc_bool b -> b
  | Sc_int _ | Sc_real _ | Sc_enum _ | Sc_record _ -> invalid_arg "as_bool"

let rec equal_scalar a b =
  match a, b with
  | Sc_int x, Sc_int y -> x = y
  | Sc_real x, Sc_real y -> Float.equal x y
  | (Sc_int _ | Sc_real _), (Sc_int _ | Sc_real _) -> Float.equal (as_float a) (as_float b)
  | Sc_bool x, Sc_bool y -> Bool.equal x y
  | Sc_enum (_, x), Sc_enum (_, y) -> x = y
  | Sc_record f1, Sc_record f2 ->
    List.length f1 = List.length f2
    && List.for_all2
         (fun (n1, v1) (n2, v2) -> String.equal n1 n2 && equal_scalar v1 v2)
         f1 f2
  | _ -> false

let rec pp_scalar ppf = function
  | Sc_int n -> Fmt.int ppf n
  | Sc_real f -> Fmt.pf ppf "%g" f
  | Sc_bool b -> Fmt.bool ppf b
  | Sc_enum (_, n) -> Fmt.pf ppf "#%d" n
  | Sc_record fields ->
    Fmt.pf ppf "{%a}"
      (Fmt.list ~sep:(Fmt.any "; ")
         (fun ppf (n, v) -> Fmt.pf ppf "%s = %a" n pp_scalar v))
      fields
