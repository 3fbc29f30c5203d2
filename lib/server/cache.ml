(* Content-addressed artifact store for the compile service.

   Keys are built from the MD5 digest of the source text plus whatever
   narrows the artifact (module name, transformation-flag fingerprint),
   so two requests with the same source and flags share one schedule no
   matter how the client phrased them.  Scheduling is deterministic —
   same module, same flags, same flowchart — which is what makes the
   artifacts safe to share between connections.

   The store is lock-striped: the key's digest prefix picks one of 8
   shards, each a mutex-protected hash table with its own LRU tick and
   capacity slice.  Concurrent requests for unrelated sources touch
   different shards and never contend, and eviction scans only the full
   shard (O(capacity/8)) instead of the whole store under one global
   lock.  Builds run outside any lock, so a slow schedule never stalls
   unrelated requests; two racing builds of the same key waste one
   build, count one miss, and both return the first-inserted value. *)

type artifact =
  | A_project of Psc.t
  | A_sched of Psc.scheduled
  | A_emit of string  (* generated C text *)
  | A_policy of Psc.Policy.table  (* tuned per-nest scheduling policies *)

type entry = { e_art : artifact; mutable e_tick : int }

type shard = {
  s_table : (string, entry) Hashtbl.t;
  s_mutex : Mutex.t;
  mutable s_tick : int;
}

type t = {
  c_capacity : int;  (* per shard *)
  c_shards : shard array;
  c_hits : Psc.Metrics.counter;
  c_misses : Psc.Metrics.counter;
  c_evictions : Psc.Metrics.counter;
}

let shards = 8

let create ?(capacity = 64) () =
  (* Ceiling split: 8 shards of ceil(capacity/8) hold at least
     [capacity] artifacts overall, never fewer. *)
  let per = max 1 ((max 1 capacity + shards - 1) / shards) in
  { c_capacity = per;
    c_shards =
      Array.init shards (fun _ ->
          { s_table = Hashtbl.create 16;
            s_mutex = Mutex.create ();
            s_tick = 0 });
    c_hits = Psc.Metrics.counter "server.cache.hits";
    c_misses = Psc.Metrics.counter "server.cache.misses";
    c_evictions = Psc.Metrics.counter "server.cache.evictions" }

(* Key constructors: one letter per artifact kind, then the content
   digest, then the discriminating context. *)

let digest src = Digest.to_hex (Digest.string src)

let project_key ~src = "P:" ^ digest src

let sched_key ~src ~module_ ~flags =
  Printf.sprintf "S:%s:%s:%s" (digest src)
    (match module_ with Some m -> m | None -> "")
    (Psc.Exec.flags_fingerprint flags)

let emit_key ~src ~module_ ~flags ~main =
  Printf.sprintf "C:%s:%s:%s:%s" (digest src)
    (match module_ with Some m -> m | None -> "")
    (Psc.Exec.flags_fingerprint flags)
    (if main then "main" else "mod")

(* Tuned policy tables additionally depend on the host that measured
   them: a table tuned on a 16-core box is advice, not ground truth, on
   a 2-core one, so it gets its own slot and the reader decides whether
   to trust it (see W121). *)
let policy_key ~src ~module_ ~flags ~host_cores =
  Printf.sprintf "T:%s:%s:%s:%d" (digest src)
    (match module_ with Some m -> m | None -> "")
    (Psc.Exec.flags_fingerprint flags)
    host_cores

(* The two hex digits right after the "X:" kind prefix are the head of
   an MD5 digest — uniformly distributed, so they stripe keys evenly.
   Anything that doesn't look like a key falls back to a generic hash. *)
let hex_val c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> -1

let shard_of t key =
  let h =
    if String.length key >= 4 && key.[1] = ':' then
      let a = hex_val key.[2] and b = hex_val key.[3] in
      if a >= 0 && b >= 0 then (a * 16) + b else Hashtbl.hash key
    else Hashtbl.hash key
  in
  t.c_shards.(h mod shards)

let locked sh f =
  Mutex.lock sh.s_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock sh.s_mutex) f

let touch sh e =
  sh.s_tick <- sh.s_tick + 1;
  e.e_tick <- sh.s_tick

let evict_stalest t sh =
  let victim = ref None in
  Hashtbl.iter
    (fun k e ->
      match !victim with
      | Some (_, tick) when tick <= e.e_tick -> ()
      | _ -> victim := Some (k, e.e_tick))
    sh.s_table;
  match !victim with
  | Some (k, _) ->
    Hashtbl.remove sh.s_table k;
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
  let sh = shard_of t key in
  let hit =
    locked sh (fun () ->
        match Hashtbl.find_opt sh.s_table key with
        | Some e ->
          touch sh e;
          Psc.Metrics.incr t.c_hits;
          Some e.e_art
        | None -> None)
  in
  match hit with
  | Some art -> (art, true)
  | None ->
    let art = build () in
    locked sh (fun () ->
        match Hashtbl.find_opt sh.s_table key with
        | Some e ->
          (* Lost the insert race: the first-inserted artifact wins. *)
          touch sh e;
          Psc.Metrics.incr t.c_hits;
          (e.e_art, true)
        | None ->
          Psc.Metrics.incr t.c_misses;
          while Hashtbl.length sh.s_table >= t.c_capacity do
            evict_stalest t sh
          done;
          sh.s_tick <- sh.s_tick + 1;
          Hashtbl.add sh.s_table key { e_art = art; e_tick = sh.s_tick };
          (art, false))

(* [peek t key] looks up without building and without touching the
   hit/miss counters: the caller treats absence as "no opinion", not a
   miss worth recording (Run probing for a tuned policy table). *)
let peek t key =
  let sh = shard_of t key in
  locked sh (fun () ->
      match Hashtbl.find_opt sh.s_table key with
      | Some e ->
        touch sh e;
        Some e.e_art
      | None -> None)

type stats = { st_entries : int; st_hits : int; st_misses : int; st_evictions : int }

let stats t =
  let entries =
    Array.fold_left
      (fun acc sh -> acc + locked sh (fun () -> Hashtbl.length sh.s_table))
      0 t.c_shards
  in
  { st_entries = entries;
    st_hits = Psc.Metrics.counter_value t.c_hits;
    st_misses = Psc.Metrics.counter_value t.c_misses;
    st_evictions = Psc.Metrics.counter_value t.c_evictions }
