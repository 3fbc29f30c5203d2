(* The host-speed yardstick: a fixed job, independent of psc, timed
   between the measured ops so that every gated time can be read at one
   reference host speed.

   The 2-vCPU virtual machine this benchmark was built on runs the same
   code at speeds up to 1.6x apart, in phases that last from under a
   second to many minutes, so ten runs that straddle a phase change
   spread by the gap between the speeds.  The ratio of an op's time to
   the time of a fixed job taken right beside it holds across them: the
   slow phases slow both alike, when the job does what the op does.  So
   the job has
   the interpreter's and the compiler's mix (boxed floats through
   closures, short-lived lists, a string-keyed map); a float-only loop
   nest tracked the phases much worse.  Every structure it builds dies
   young, so the major heap of the program measured beside it costs the
   job little.  README.md gives the measurements.

   Nothing here calls psc: a change to psc moves an op's time and not
   the yardstick's.  A change to the OCaml runtime's settings would move
   both. *)

(* Boxed floats through closures: a 5-point stencil compiled to
   closures over a 34 x 34 grid, the shape of the interpreter's inner
   loop. *)
type expr =
  | Const of float
  | Load of int * int
  | Add of expr * expr
  | Mul of expr * expr

let rec compile (a : float array) n = function
  | Const x -> fun _ _ -> x
  | Load (di, dj) -> fun i j -> a.(((i + di) * n) + j + dj)
  | Add (x, y) ->
    let f = compile a n x and g = compile a n y in
    fun i j -> f i j +. g i j
  | Mul (x, y) ->
    let f = compile a n x and g = compile a n y in
    fun i j -> f i j *. g i j

let grid_n = 34

let stencil =
  let a = Array.init (grid_n * grid_n) (fun i -> float (i mod 89) /. 89.0) in
  compile a grid_n
    (Mul
       ( Const 0.25,
         Add (Add (Load (-1, 0), Load (1, 0)), Add (Load (0, -1), Load (0, 1))) ))

let closures () =
  let b = Array.make (grid_n * grid_n) 0.0 and last = Hashtbl.create 8 in
  for _ = 1 to 30 do
    for i = 1 to grid_n - 2 do
      for j = 1 to grid_n - 2 do
        let v = stencil i j in
        b.((i * grid_n) + j) <- v;
        Hashtbl.replace last (j land 7) (Some v)
      done
    done
  done;
  ignore (Sys.opaque_identity b)

(* Short-lived lists of boxed floats. *)
let lists () =
  let r = ref 0.0 in
  for k = 1 to 120 do
    let l = List.init 400 (fun i -> float (i + k)) in
    let l = List.map (fun x -> x *. 0.5) l in
    r := !r +. List.fold_left ( +. ) 0.0 (List.rev l)
  done;
  ignore (Sys.opaque_identity !r)

(* A string-keyed map built, folded and sorted, like a symbol table. *)
module Smap = Map.Make (String)

let symbols () =
  for k = 0 to 9 do
    let m = ref Smap.empty in
    for i = 0 to 299 do
      m := Smap.add ("k" ^ string_of_int (((i * 7919) + k) mod 301)) i !m
    done;
    let keys =
      Smap.fold (fun key v acc -> if v land 1 = 0 then key :: acc else acc) !m []
    in
    ignore (Sys.opaque_identity (List.sort compare keys))
  done

let job () =
  closures ();
  lists ();
  symbols ()

(* The job's nominal time, a round figure within what it takes on the
   host this was built on (3.3 to 6 ms, with the host's speed).  It is
   a fixed unit, not a measurement: only ratios to the job's measured
   time enter the metrics. *)
let ref_ns = 5e6

(* One timing of the job, in ns. *)
let time_ns () =
  let t0 = Pb.now_ns () in
  job ();
  float_of_int (Pb.now_ns () - t0)

(* ------------------------------------------------------------------ *)
(* Normalizing a stream of samples *)

(* A [meter] cuts a run into slices, times the job at every cut, and
   reads each sample recorded in a slice at the reference speed: raw x
   [ref_ns] / the mean of the two job times that bracket the slice.  A
   slice runs from the end of one timing to the start of the next. *)
type meter = {
  interval_ns : int;  (* the shortest slice *)
  mutable last_y : float;  (* the job's time at the slice's start *)
  mutable last_at : int;  (* monotonic ns when the slice began *)
  mutable pending : (string * float) list;  (* raw samples of the slice *)
  norm : (string, float list) Hashtbl.t;  (* key -> normalized samples *)
  mutable norm_s : float;  (* the slices' wall time at the reference speed *)
  mutable ys : float list;  (* every job time, for the report *)
}

let meter ~interval_ms () =
  (* The first timing warms the job's code and data; it is dropped. *)
  ignore (time_ns ());
  let y = time_ns () in
  { interval_ns = int_of_float (interval_ms *. 1e6); last_y = y;
    last_at = Pb.now_ns (); pending = []; norm = Hashtbl.create 8;
    norm_s = 0.0; ys = [ y ] }

(* Time the job now and settle the slice that ends here. *)
let cut m =
  let slice_s = float_of_int (Pb.now_ns () - m.last_at) /. 1e9 in
  let y = time_ns () in
  let k = ref_ns /. ((m.last_y +. y) /. 2.0) in
  List.iter
    (fun (key, raw) ->
      let prev = Option.value (Hashtbl.find_opt m.norm key) ~default:[] in
      Hashtbl.replace m.norm key ((raw *. k) :: prev))
    m.pending;
  m.norm_s <- m.norm_s +. (slice_s *. k);
  m.pending <- [];
  m.last_y <- y;
  m.last_at <- Pb.now_ns ();
  m.ys <- y :: m.ys

(* Record a raw sample under [key]. *)
let add m key raw = m.pending <- (key, raw) :: m.pending

(* Whether the slice is [interval_ns] old. *)
let due m = Pb.now_ns () - m.last_at >= m.interval_ns

let tick m = if due m then cut m

let normalized m key = Option.value (Hashtbl.find_opt m.norm key) ~default:[]

let all_normalized m =
  Hashtbl.fold (fun _ l acc -> List.rev_append l acc) m.norm []

(* One line for the report: how far the run's raw times were scaled. *)
let report m =
  Printf.printf
    "yardstick: %d timings, median %.3f ms against the reference %.3f ms \
     (raw times scaled by about %.3f)\n"
    (List.length m.ys) (Pb.median m.ys /. 1e6) (ref_ns /. 1e6)
    (ref_ns /. Pb.median m.ys)

(* Set-up at the reference speed: set-ups as [Pb.setup_runs] and
   [Pb.setup_min_s] ask, each read like an op against the job's timings
   around it (two before, two after), and their median.  [after] runs
   off the clock, after the timings, on every set-up but the last.
   Returns the last set-up's result and the median, in seconds. *)
let setups ?(after = fun _ -> ()) f =
  ignore (time_ns ());
  let pair () = (time_ns () +. time_ns ()) /. 2.0 in
  let norm = ref [] in
  let rec go n total before =
    let t0 = Pb.now_ns () in
    let r = f () in
    let dt = Pb.secs_since t0 in
    let y = pair () in
    norm := (dt *. ref_ns /. ((before +. y) /. 2.0)) :: !norm;
    if n + 1 < Pb.setup_runs || total +. dt < Pb.setup_min_s then begin
      after r;
      go (n + 1) (total +. dt) y
    end
    else r
  in
  let r = go 0 0.0 (pair ()) in
  (r, Pb.median !norm)
