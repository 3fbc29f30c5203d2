(* Helpers shared by the workloads: the monotonic clock, order
   statistics, /proc readings, the span wrapper the traced runs record
   through, and the per-layer self-time fold over recorded spans. *)

(* CLOCK_MONOTONIC in nanoseconds.  [Psc.Metrics.now_ns] reads the wall
   clock, which NTP may slew mid-run. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let secs_since t0 = float_of_int (now_ns () - t0) /. 1e9

let ms ns = float_of_int ns /. 1e6

(* ------------------------------------------------------------------ *)
(* Order statistics *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile of a sorted sample, [q] in (0, 1]. *)
let pct (a : float array) q =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs = pct (sorted xs) 0.5

let mean xs =
  match xs with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* The tail percentile reported as [latency_ms_tail] is fixed per
   workload: the highest of p90/p99 that leaves at least ten samples
   beyond it at the benchmark's run length.  p99.9 is not used: where it
   has ten samples beyond it (serve), it catches the host's contention
   episodes rather than the program. *)
type tail = P90 | P99

let tail_q = function P90 -> 0.90 | P99 -> 0.99

let tail_name = function P90 -> "p90" | P99 -> "p99"

(* The tail percentile of a sorted sample, after a report line naming it
   and the number of samples beyond it. *)
let report_tail tail (a : float array) =
  let n = Array.length a in
  let beyond = n - int_of_float (ceil (tail_q tail *. float_of_int n)) in
  Printf.printf "latency_ms_tail is %s: %d samples beyond it of %d\n"
    (tail_name tail) beyond n;
  pct a (tail_q tail)

(* Set-up runs at least [setup_runs] times per run, and until the
   set-ups have taken [setup_min_s] together, and its median time is
   reported ([Yardstick.setups]): one set-up is too short a sample for a
   gated time, and serve's, a 17 ms process start, runs about fifteen
   times. *)
let setup_runs = 5

let setup_min_s = 0.25

(* ------------------------------------------------------------------ *)
(* /proc readings *)

(* Read to end of file, which also works on /proc files (they report a
   length of zero). *)
let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Peak resident set (VmHWM) of a process ("self" or a pid), in MB. *)
let peak_rss_mb pid =
  let status = read_file (Printf.sprintf "/proc/%s/status" pid) in
  match
    List.find_opt
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' status)
  with
  | None -> 0.0
  | Some l ->
    let kb =
      String.split_on_char ' ' l |> List.filter_map int_of_string_opt |> List.hd
    in
    float_of_int kb /. 1024.0

(* utime + stime of a process, in microseconds (USER_HZ = 100). *)
let cpu_us pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  (* The command field may hold spaces: split after its closing ')'. *)
  let rest =
    let i = String.rindex s ')' in
    String.sub s (i + 2) (String.length s - i - 2)
  in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (* Fields 14 and 15 of stat(5); [rest] starts at field 3. *)
  (int_of_string f.(11) + int_of_string f.(12)) * 10_000

(* ------------------------------------------------------------------ *)
(* Spans *)

(* Every layer call the benchmark makes goes through [span]: one atomic
   load when tracing is off, a Begin/End pair in the traced run.  The
   "pb." prefix keeps the benchmark's spans apart from the ones the
   library records itself. *)
let span name f = Psc.Trace.with_span ("pb." ^ name) f

let is_pb name = String.length name > 3 && String.sub name 0 3 = "pb."

type layer_time = {
  lt_count : int;
  lt_total_us : float;  (* summed span durations *)
  lt_self_us : float;   (* minus the time covered by child pb. spans *)
}

(* Fold recorded events into per-span-name totals, keeping the spans
   [keep] accepts (by default the benchmark's own).  A span's self time
   is its duration minus the durations of its direct kept children;
   other spans nested inside count as the self time of the kept span
   that called into them.  Each (pid, tid) nests on its own. *)
let layer_times ?(keep = is_pb) (events : Psc.Trace.event list) :
    (string * layer_time) list =
  let tbl = Hashtbl.create 32 in
  let add name dur self =
    let cur =
      Option.value (Hashtbl.find_opt tbl name)
        ~default:{ lt_count = 0; lt_total_us = 0.0; lt_self_us = 0.0 }
    in
    Hashtbl.replace tbl name
      { lt_count = cur.lt_count + 1;
        lt_total_us = cur.lt_total_us +. dur;
        lt_self_us = cur.lt_self_us +. self }
  in
  (* Per thread, a stack of (name, start, child time). *)
  let stacks = Hashtbl.create 8 in
  List.iter
    (fun (e : Psc.Trace.event) ->
      let key = (e.Psc.Trace.ev_pid, e.Psc.Trace.ev_tid) in
      let stack = Option.value (Hashtbl.find_opt stacks key) ~default:[] in
      if keep e.Psc.Trace.ev_name then
        match e.Psc.Trace.ev_ph with
        | Psc.Trace.Begin ->
          Hashtbl.replace stacks key
            ((e.Psc.Trace.ev_name, e.Psc.Trace.ev_ts, ref 0.0) :: stack)
        | Psc.Trace.End -> (
          match stack with
          | (name, t0, child) :: rest ->
            let dur = e.Psc.Trace.ev_ts -. t0 in
            let name =
              if is_pb name then String.sub name 3 (String.length name - 3)
              else name
            in
            add name dur (dur -. !child);
            Hashtbl.replace stacks key rest;
            (match rest with (_, _, c) :: _ -> c := !c +. dur | [] -> ())
          | [] -> ())
        | Psc.Trace.Instant -> ())
    events;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let print_layer_table rows =
  Printf.printf "%-28s %8s %12s %12s\n" "span (self time)" "count" "total_ms"
    "self_ms";
  List.iter
    (fun (name, lt) ->
      Printf.printf "%-28s %8d %12.3f %12.3f\n" name lt.lt_count
        (lt.lt_total_us /. 1e3) (lt.lt_self_us /. 1e3))
    rows

(* ------------------------------------------------------------------ *)
(* Results *)

type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

type result = {
  attempted : int;
  failed : int;
  correct : bool;  (* every output check and trace check passed *)
  metrics : metric list;
}

(* Where every file the benchmark writes lives, relative to the checkout
   root (short relative paths keep the server's socket name well under
   the sockaddr_un limit). *)
let work_dir = ".perfbench"

let ensure_work_dir () =
  if not (Sys.file_exists work_dir) then Unix.mkdir work_dir 0o755

let work_file name = Filename.concat work_dir name

let psc_exe = "_build/default/bin/psc_main.exe"

let nproc = max 1 (Psc.Pool.recommended_size ())

external pin_one_cpu : unit -> int = "pb_pin_one_cpu"

(* Validate a Chrome trace (or several, merged) with `psc trace-check`.
   Runs outside every timed phase. *)
let trace_check ?merged_out files =
  let args =
    (match merged_out with Some m -> [ "--merged-out"; m ] | None -> [])
    @ files
  in
  let cmd =
    String.concat " "
      (List.map Filename.quote (psc_exe :: "trace-check" :: args))
  in
  let ic = Unix.open_process_in cmd in
  let out = try input_line ic with End_of_file -> "" in
  (try
     while true do
       ignore (input_line ic)
     done
   with End_of_file -> ());
  let ok = Unix.close_process_in ic = Unix.WEXITED 0 in
  Printf.printf "trace-check %s: %s\n" (String.concat " " files)
    (if ok then out else "FAILED");
  ok
