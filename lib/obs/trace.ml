(* Span-based tracing with a Chrome trace-event exporter.

   The recorder is off by default and every instrumented call site pays
   one atomic load on the disabled path — [with_span] tests the state
   word before touching the clock, the mutex, or the event store, so the
   compiler pipeline can stay permanently instrumented.

   When enabled, spans are recorded as Begin/End event pairs carrying
   the real OS process id and the recording thread's id (systhreads and
   domains both get distinct ids), and exported in the Chrome
   trace-event JSON format ("traceEvents"), which Perfetto and
   chrome://tracing load directly.  Timestamps are microseconds from
   [set_enabled true] and are made globally monotone at record time
   (the store's mutex already serializes events, so clamping against
   the previous timestamp costs nothing extra), which in turn makes
   them monotone per thread.  The absolute wall-clock moment of the
   epoch is written into the file ("otherData"."epoch_us"), which is
   what lets [merge] align traces recorded by different processes onto
   one timeline.

   Besides the global store there are per-thread *collectors*
   ([collect]): a request handler can gather exactly the spans recorded
   on its own thread — even when global tracing is off — which is how
   the compile server captures the span subtree of a slow request
   without tracing every request to disk.  The disabled-path guarantee
   is kept by folding both switches into one atomic word: bit 0 is the
   global flag, the upper bits count live collectors, and a zero word
   short-circuits [with_span] with a single load.

   The module also ships the inverse direction — a trace parser
   ([parse_chrome] / [parse_chrome_file], over the shared [Ps_json]
   reader) and a structural validator ([validate]) — so tests and
   `psc trace-check` can round-trip an emitted file: every B closed by a matching E,
   per-(pid,tid) timestamp monotonicity, proper nesting, and no span id
   claimed twice across a merged multi-process trace. *)

module Json = Ps_json

type phase = Begin | End | Instant

type event = {
  ev_name : string;
  ev_ph : phase;
  ev_ts : float;  (* microseconds since the trace was enabled *)
  ev_pid : int;
  ev_tid : int;
  ev_args : (string * string) list;
}

(* Bit 0: the global flag; bits 1..: 2 x the live collector count.
   [with_span] is a no-op iff the whole word is 0. *)
let state = Atomic.make 0

let enabled () = Atomic.get state land 1 = 1

let rec set_enabled_bit b =
  let cur = Atomic.get state in
  let next = if b then cur lor 1 else cur land lnot 1 in
  if cur <> next && not (Atomic.compare_and_set state cur next) then
    set_enabled_bit b

let mutex = Mutex.create ()

(* Most recent first; [events ()] reverses. *)
let store : event list ref = ref []

(* Per-thread collectors (most recent first), keyed by the same thread
   id that becomes the Chrome tid.  Guarded by [mutex]. *)
let collectors : (int, event list ref) Hashtbl.t = Hashtbl.create 8

let epoch = ref 0.0

let last_ts = ref 0.0

let pid = Unix.getpid ()

let reset () =
  Mutex.lock mutex;
  store := [];
  epoch := Unix.gettimeofday ();
  last_ts := 0.0;
  Mutex.unlock mutex

let set_enabled b =
  if b && not (enabled ()) then reset ();
  set_enabled_bit b

(* Unique within the process by the counter, unique across processes by
   the pid prefix — which is what lets [validate] reject the same file
   merged into a timeline twice. *)
let sid_counter = Atomic.make 0

let fresh_span_id () =
  Printf.sprintf "%d.%d" pid (Atomic.fetch_and_add sid_counter 1)

let thread_id () = Thread.id (Thread.self ())

let record ?(args = []) ph name =
  let tid = thread_id () in
  Mutex.lock mutex;
  let ts = max ((Unix.gettimeofday () -. !epoch) *. 1e6) !last_ts in
  last_ts := ts;
  let e =
    { ev_name = name; ev_ph = ph; ev_ts = ts; ev_pid = pid; ev_tid = tid;
      ev_args = args }
  in
  if Atomic.get state land 1 = 1 then store := e :: !store;
  (match Hashtbl.find_opt collectors tid with
   | Some sink -> sink := e :: !sink
   | None -> ());
  Mutex.unlock mutex

let events () = List.rev !store

let instant ?args name =
  if Atomic.get state <> 0 then record ?args Instant name

(* The workhorse: one atomic load when disabled; Begin/End around [f]
   (End also on exception) when enabled or collected. *)
let with_span ?args name f =
  if Atomic.get state = 0 then f ()
  else begin
    record ?args Begin name;
    Fun.protect ~finally:(fun () -> record End name) f
  end

let collect f =
  let tid = thread_id () in
  let sink = ref [] in
  Mutex.lock mutex;
  (* A nested collect on the same thread would lose the outer sink;
     the server never nests, so keep the simple last-wins semantics. *)
  Hashtbl.replace collectors tid sink;
  Mutex.unlock mutex;
  ignore (Atomic.fetch_and_add state 2);
  let finally () =
    ignore (Atomic.fetch_and_add state (-2));
    Mutex.lock mutex;
    Hashtbl.remove collectors tid;
    Mutex.unlock mutex
  in
  let r = Fun.protect ~finally f in
  (r, List.rev !sink)

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export *)

let phase_letter = function Begin -> "B" | End -> "E" | Instant -> "i"

let event_to_json e =
  Json.obj
    ([ ("name", Json.str e.ev_name);
       ("ph", Json.str (phase_letter e.ev_ph));
       ("ts", Printf.sprintf "%.3f" e.ev_ts);
       ("pid", Json.int e.ev_pid);
       ("tid", Json.int e.ev_tid) ]
    @
    match e.ev_args with
    | [] -> []
    | kvs ->
      [ ("args", Json.obj (List.map (fun (k, v) -> (k, Json.str v)) kvs)) ])

let render_events ?(epoch_us = 0.0) evs =
  Printf.sprintf "{\"traceEvents\":[\n%s\n],\"displayTimeUnit\":%s,\"otherData\":%s}\n"
    (String.concat ",\n" (List.map event_to_json evs))
    (Json.str "ms")
    (Json.obj [ ("epoch_us", Json.str (Printf.sprintf "%.3f" epoch_us)) ])

let to_chrome_json () = render_events ~epoch_us:(!epoch *. 1e6) (events ())

let write_events ?epoch_us path evs =
  let oc = open_out path in
  output_string oc (render_events ?epoch_us evs);
  close_out oc

let write path = write_events ~epoch_us:(!epoch *. 1e6) path (events ())

exception Invalid_trace of string

let invalid fmt = Printf.ksprintf (fun m -> raise (Invalid_trace m)) fmt

type file = { f_epoch_us : float; f_events : event list }

(* Parse a Chrome trace-event file back into events (in file order).
   Accepts both the {"traceEvents": [...]} object form we emit and a
   bare event array.  Files written before the exporter carried real
   pids default to pid 1, matching what they said on disk. *)
let parse_chrome_file (text : string) : file =
  let j =
    try Json.parse text with Json.Parse_error m -> invalid "bad JSON: %s" m
  in
  let rows =
    match j with
    | Json.Arr rows -> rows
    | Json.Obj _ -> (
      match Json.member "traceEvents" j with
      | Some (Json.Arr rows) -> rows
      | _ -> invalid "no traceEvents array")
    | _ -> invalid "trace is neither an object nor an array"
  in
  let epoch_us =
    match Option.bind (Json.member "otherData" j) (Json.member "epoch_us") with
    | Some (Json.Str s) -> (
      match float_of_string_opt s with
      | Some f -> f
      | None -> invalid "otherData.epoch_us is not a number")
    | Some (Json.Num f) -> f
    | _ -> 0.0
  in
  let events =
    List.map
      (fun row ->
        let need what k = function
          | Some v -> v
          | None -> invalid "event lacks %s field %S" what k
        in
        let str k = need "string" k (Json.member_str k row) in
        let num k = need "numeric" k (Json.member_num k row) in
        let ph =
          match str "ph" with
          | "B" -> Begin
          | "E" -> End
          | "i" | "I" -> Instant
          | p -> invalid "unsupported event phase %S" p
        in
        let args =
          match Json.member "args" row with
          | Some (Json.Obj kvs) ->
            List.filter_map
              (function k, Json.Str v -> Some (k, v) | _ -> None)
              kvs
          | _ -> []
        in
        { ev_name = str "name";
          ev_ph = ph;
          ev_ts = num "ts";
          ev_pid =
            int_of_float (Option.value (Json.member_num "pid" row) ~default:1.);
          ev_tid = int_of_float (num "tid");
          ev_args = args })
      rows
  in
  { f_epoch_us = epoch_us; f_events = events }

let parse_chrome (text : string) : event list = (parse_chrome_file text).f_events

(* Stitch traces from several processes onto one timeline.  Each file's
   timestamps are relative to its own epoch; the recorded absolute
   epochs shift every file onto the earliest one, and a stable sort by
   timestamp interleaves them without reordering any single file (ties
   keep file order, so per-(pid,tid) monotonicity survives). *)
let merge (files : file list) : event list =
  match files with
  | [] -> []
  | _ ->
    let base =
      List.fold_left (fun acc f -> Float.min acc f.f_epoch_us) infinity files
    in
    let shifted =
      List.concat_map
        (fun f ->
          let off = f.f_epoch_us -. base in
          List.map (fun e -> { e with ev_ts = e.ev_ts +. off }) f.f_events)
        files
    in
    List.stable_sort (fun a b -> Float.compare a.ev_ts b.ev_ts) shifted

(* Structural validation: per (pid, tid), timestamps never decrease,
   every E matches the innermost open B, no span is left open — and no
   two Begin events claim the same span id ("sid" arg), which is what
   catches the same process's trace merged into a timeline twice. *)
let validate (evs : event list) : (unit, string) result =
  let stacks : (int * int, string list ref) Hashtbl.t = Hashtbl.create 8 in
  let last : (int * int, float) Hashtbl.t = Hashtbl.create 8 in
  let sids : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let stack key =
    match Hashtbl.find_opt stacks key with
    | Some s -> s
    | None ->
      let s = ref [] in
      Hashtbl.add stacks key s;
      s
  in
  let err = ref None in
  List.iter
    (fun e ->
      if !err = None then begin
        let key = (e.ev_pid, e.ev_tid) in
        (match Hashtbl.find_opt last key with
         | Some t when e.ev_ts < t ->
           err :=
             Some
               (Printf.sprintf
                  "timestamps go backwards on pid %d tid %d at %S (%.3f < %.3f)"
                  e.ev_pid e.ev_tid e.ev_name e.ev_ts t)
         | _ -> ());
        Hashtbl.replace last key e.ev_ts;
        match e.ev_ph with
        | Begin ->
          (match List.assoc_opt "sid" e.ev_args with
           | Some sid ->
             if Hashtbl.mem sids sid then
               err :=
                 Some
                   (Printf.sprintf "span id %S claimed twice (at %S)" sid
                      e.ev_name)
             else Hashtbl.add sids sid ()
           | None -> ());
          let s = stack key in
          s := e.ev_name :: !s
        | End -> (
          let s = stack key in
          match !s with
          | top :: rest when String.equal top e.ev_name -> s := rest
          | top :: _ ->
            err :=
              Some
                (Printf.sprintf "E %S closes open span %S on pid %d tid %d"
                   e.ev_name top e.ev_pid e.ev_tid)
          | [] ->
            err :=
              Some
                (Printf.sprintf "E %S with no open span on pid %d tid %d"
                   e.ev_name e.ev_pid e.ev_tid))
        | Instant -> ()
      end)
    evs;
  (match !err with
   | None ->
     Hashtbl.iter
       (fun (pid, tid) s ->
         match !s with
         | [] -> ()
         | open_ :: _ when !err = None ->
           err :=
             Some
               (Printf.sprintf "span %S left open on pid %d tid %d" open_ pid
                  tid)
         | _ -> ())
       stacks
   | Some _ -> ());
  match !err with None -> Ok () | Some m -> Error m

(* Fold a flat event list into (name, duration_us) rows in begin order —
   the rendering of a slow request's collected span subtree.  Unmatched
   events (a span still open when the collector stopped) are dropped. *)
let span_durations (evs : event list) : (string * float) list =
  let out = ref [] and stack = ref [] in
  List.iter
    (fun e ->
      match e.ev_ph with
      | Begin -> stack := (e.ev_name, e.ev_ts, ref []) :: !stack
      | End -> (
        match !stack with
        | (n, t0, children) :: tl when String.equal n e.ev_name ->
          stack := tl;
          let row = (n, e.ev_ts -. t0) in
          (match !stack with
           | (_, _, parent) :: _ -> parent := !parent @ (row :: !children)
           | [] -> out := !out @ (row :: !children))
        | _ -> ())
      | Instant -> ())
    evs;
  !out
