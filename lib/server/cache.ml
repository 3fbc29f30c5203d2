(* Content-addressed artifact store for the compile service.

   Keys are built from the MD5 digest of the source text plus whatever
   narrows the artifact (module name, transformation-flag fingerprint),
   so two requests with the same source and flags share one schedule no
   matter how the client phrased them.  Scheduling is deterministic —
   same module, same flags, same flowchart — which is what makes the
   artifacts safe to share between connections.

   A schedule or C artifact holds its answer's fields already rendered,
   so a hit prints and escapes nothing: it answers the bytes its miss
   rendered.

   The store is one hash table under one mutex with one LRU tick: it
   holds at most [capacity] artifacts, and an insert into a full store
   evicts the least recently used.  The server's threads share one
   OCaml runtime lock, so striping the store over several locks would
   buy no parallelism.  Builds run outside the lock, so a slow schedule
   never stalls unrelated requests; two racing builds of the same key
   waste one build, count one miss, and both return the first-inserted
   value. *)

type artifact =
  | A_project of Psc.t
  | A_sched of sched
  | A_emit of string  (* generated C, as a JSON string literal *)
  | A_policy of Psc.Policy.table  (* tuned per-nest scheduling policies *)

and sched = {
  sa_project : Psc.t;  (* what it was scheduled from; [run] reads its program *)
  sa_sched : Psc.scheduled;
  sa_fields : (string * string) list;  (* the schedule answer's fields, rendered *)
}

type entry = { e_art : artifact; mutable e_tick : int }

type t = {
  c_capacity : int;
  c_table : (string, entry) Hashtbl.t;
  c_mutex : Mutex.t;
  mutable c_tick : int;
  c_hits : Psc.Metrics.counter;
  c_misses : Psc.Metrics.counter;
  c_evictions : Psc.Metrics.counter;
}

let create ?(capacity = 64) () =
  { c_capacity = max 1 capacity;
    c_table = Hashtbl.create 16;
    c_mutex = Mutex.create ();
    c_tick = 0;
    c_hits = Psc.Metrics.counter "server.cache.hits";
    c_misses = Psc.Metrics.counter "server.cache.misses";
    c_evictions = Psc.Metrics.counter "server.cache.evictions" }

(* Key constructors: one letter per artifact kind, then the content
   digest, then the discriminating context. *)

let digest src = Digest.to_hex (Digest.string src)

(* Four stable characters, one per pass (e.g. "s-t-" for sink+trim):
   the same module schedules differently under different passes. *)
let flags_fingerprint (f : Psc.Exec.sched_flags) =
  let b c v = if v then c else '-' in
  let s = Bytes.create 4 in
  Bytes.set s 0 (b 's' f.Psc.Exec.sf_sink);
  Bytes.set s 1 (b 'f' f.Psc.Exec.sf_fuse);
  Bytes.set s 2 (b 't' f.Psc.Exec.sf_trim);
  Bytes.set s 3 (b 'c' f.Psc.Exec.sf_collapse);
  Bytes.to_string s

let project_key ~digest = "P:" ^ digest

let module_part = function Some m -> m | None -> ""

let schedule_key ~digest ~module_ ~flags =
  String.concat ":"
    [ "S"; digest; module_part module_; flags_fingerprint flags ]

let sched_key ~src = schedule_key ~digest:(digest src)

(* A main() harness bakes its scalars into the C, so they are part of
   its key: sorted by name (stably, so that of two bindings of one name
   the first, which the harness uses, stays first), each name as a JSON
   string so that no two lists render alike. *)
let emit_key ~digest ~module_ ~flags ~main =
  let harness =
    match main with
    | None -> "mod"
    | Some scalars ->
      let sorted = List.stable_sort (fun (a, _) (b, _) -> String.compare a b) scalars in
      "main="
      ^ String.concat ","
          (List.map (fun (n, v) -> Psc.Json.str n ^ "=" ^ string_of_int v) sorted)
  in
  String.concat ":"
    [ "C"; digest; module_part module_; flags_fingerprint flags; harness ]

(* Tuned policy tables additionally depend on the host that measured
   them: a table tuned on a 16-core box is advice, not ground truth, on
   a 2-core one, so it gets its own slot and the reader decides whether
   to trust it (see W121). *)
let policy_key ~digest ~module_ ~flags ~host_cores =
  String.concat ":"
    [ "T"; digest; module_part module_; flags_fingerprint flags;
      string_of_int host_cores ]

let touch t e =
  t.c_tick <- t.c_tick + 1;
  e.e_tick <- t.c_tick

let evict_stalest t =
  let victim = ref None in
  Hashtbl.iter
    (fun k e ->
      match !victim with
      | Some (_, tick) when tick <= e.e_tick -> ()
      | _ -> victim := Some (k, e.e_tick))
    t.c_table;
  match !victim with
  | Some (k, _) ->
    Hashtbl.remove t.c_table k;
    Psc.Metrics.incr t.c_evictions
  | None -> ()

(* [find_or_build t key build] returns the artifact and whether it came
   from the store.  The miss is counted at insert time, not lookup
   time: when two builds of one key race, the loser finds the winner's
   entry already inserted, returns *that* artifact (so identical
   concurrent requests observably converge on one value) and counts a
   hit — exactly one miss per key actually built.  [build] may raise;
   nothing is inserted or counted then. *)
let find_or_build t key build =
  let hit =
    Mutex.protect t.c_mutex (fun () ->
        match Hashtbl.find_opt t.c_table key with
        | Some e ->
          touch t e;
          Psc.Metrics.incr t.c_hits;
          Some e.e_art
        | None -> None)
  in
  match hit with
  | Some art -> (art, true)
  | None ->
    let art = build () in
    Mutex.protect t.c_mutex (fun () ->
        match Hashtbl.find_opt t.c_table key with
        | Some e ->
          (* Lost the insert race: the first-inserted artifact wins. *)
          touch t e;
          Psc.Metrics.incr t.c_hits;
          (e.e_art, true)
        | None ->
          Psc.Metrics.incr t.c_misses;
          while Hashtbl.length t.c_table >= t.c_capacity do
            evict_stalest t
          done;
          t.c_tick <- t.c_tick + 1;
          Hashtbl.add t.c_table key { e_art = art; e_tick = t.c_tick };
          (art, false))

(* [peek t key] looks up without building and without touching the
   hit/miss counters: the caller treats absence as "no opinion", not a
   miss worth recording (Run probing for a tuned policy table). *)
let peek t key =
  Mutex.protect t.c_mutex (fun () ->
      match Hashtbl.find_opt t.c_table key with
      | Some e ->
        touch t e;
        Some e.e_art
      | None -> None)

type stats = { st_entries : int; st_hits : int; st_misses : int; st_evictions : int }

let stats t =
  { st_entries = Mutex.protect t.c_mutex (fun () -> Hashtbl.length t.c_table);
    st_hits = Psc.Metrics.counter_value t.c_hits;
    st_misses = Psc.Metrics.counter_value t.c_misses;
    st_evictions = Psc.Metrics.counter_value t.c_evictions }
