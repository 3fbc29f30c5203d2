(** Content-addressed artifact store for the compile service.

    Keys are built from the MD5 digest of the source text plus whatever
    narrows the artifact (module name, transformation-flag fingerprint:
    four characters, one per pass, e.g. ["s-t-"] for sink+trim), so two
    requests with the same source and flags share one schedule no matter
    how the client phrased them.  It is the only place where a schedule
    outlives the request that made it (a run's callee schedules die with
    the run), and it is bounded: the least recently used artifacts go
    first.  The store is lock-striped: the key's digest prefix picks one
    of 8 shards, each a mutex-protected hash table with its own LRU tick
    and capacity slice, so unrelated requests never contend and eviction
    scans one shard, not the whole store.  Builds run outside any lock,
    so a slow schedule never stalls unrelated requests. *)

type artifact =
  | A_project of Psc.t          (** a loaded + elaborated source *)
  | A_sched of sched            (** a scheduled module and its answer *)
  | A_emit of string
      (** generated C, already escaped as a JSON string literal: the
          ["c"] field of its answer *)
  | A_policy of Psc.Policy.table
      (** a tuned per-nest scheduling-policy table *)

(** A schedule artifact.  Its answer's fields are rendered once, when
    the artifact is built, so a hit answers those bytes and prints
    nothing. *)
and sched = {
  sa_project : Psc.t;
      (** the project it was scheduled from; a [run] executes in its
          program *)
  sa_sched : Psc.scheduled;
  sa_fields : (string * string) list;
      (** the rendered ["flowchart"], ["windows"], ["merged"],
          ["trimmed"] and ["collapsed"] fields of a [schedule] answer *)
}

type t

val shards : int
(** The number of lock stripes: 8. *)

val create : ?capacity:int -> unit -> t
(** A store holding at least [capacity] (default 64, min 1) artifacts
    overall — each shard holds up to ceil(capacity/8) — with its
    hit/miss/eviction counters registered as [server.cache.*] in
    {!Psc.Metrics}. *)

(** {2 Key constructors}

    One letter per artifact kind, then the content digest, then the
    discriminating context. *)

val digest : string -> string
(** The hex MD5 content digest that prefixes every key — also what the
    access log reports as a request's ["digest"] field, and whose two
    leading hex digits pick the shard. *)

val project_key : digest:string -> string

val schedule_key :
  digest:string -> module_:string option -> flags:Psc.Exec.sched_flags -> string

val sched_key :
  src:string -> module_:string option -> flags:Psc.Exec.sched_flags -> string
(** [schedule_key] of [digest src], for a caller that holds the text
    rather than its digest. *)

val emit_key :
  digest:string ->
  module_:string option ->
  flags:Psc.Exec.sched_flags ->
  main:(string * int) list option ->
  string
(** [main] is [None] for the module's C alone and [Some scalars] for C
    with the [main()] harness, which bakes those scalars in: they are
    part of the key, sorted by name, so two harnesses share an artifact
    only when they print the same C. *)

val policy_key :
  digest:string ->
  module_:string option ->
  flags:Psc.Exec.sched_flags ->
  host_cores:int ->
  string
(** Tuned policy tables are additionally keyed by the core count of the
    host that measured them; a [Run] only trusts a table whose
    [host_cores] matches (otherwise W121 + static fallback). *)

val find_or_build : t -> string -> (unit -> artifact) -> artifact * bool
(** [find_or_build t key build] returns the artifact and whether it came
    from the store.  A hit stamps the entry most-recently-used; a miss
    runs [build] outside the lock and inserts the result, evicting the
    shard's stalest entries while over its capacity slice.  When two
    builds of one key race, the loser wastes its build but returns the
    {e winner's} (first-inserted) artifact flagged as a hit — identical
    concurrent requests observably converge, and exactly one miss is
    counted per key actually built.  [build] may raise; nothing is
    inserted or counted then. *)

val peek : t -> string -> artifact option
(** Look up without building and without touching the hit/miss
    counters — for callers that treat absence as "no opinion" rather
    than a miss (e.g. [Run] probing for a tuned policy table). *)

type stats = {
  st_entries : int;
  st_hits : int;
  st_misses : int;
  st_evictions : int;
}

val stats : t -> stats
