(** Content-addressed artifact store for the compile service.

    Keys are built from the MD5 digest of the source text plus whatever
    narrows the artifact (module name, transformation-flag fingerprint),
    so two requests with the same source and flags share one schedule no
    matter how the client phrased them.  The store is lock-striped: the
    key's digest prefix picks one of 8 shards, each a mutex-protected
    hash table with its own LRU tick and capacity slice, so unrelated
    requests never contend and eviction scans one shard, not the whole
    store.  Builds run outside any lock, so a slow schedule never stalls
    unrelated requests. *)

type artifact =
  | A_project of Psc.t          (** a loaded + elaborated source *)
  | A_sched of Psc.scheduled    (** a scheduled module *)
  | A_emit of string            (** generated C text *)
  | A_policy of Psc.Policy.table
      (** a tuned per-nest scheduling-policy table *)

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

val project_key : src:string -> string

val sched_key :
  src:string -> module_:string option -> flags:Psc.Exec.sched_flags -> string

val emit_key :
  src:string ->
  module_:string option ->
  flags:Psc.Exec.sched_flags ->
  main:bool ->
  string

val policy_key :
  src:string ->
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
