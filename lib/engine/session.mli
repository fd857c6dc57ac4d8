(** An engine session: the compile → link → observe pipeline behind
    content-addressed caches (see DESIGN.md §10 and §12).

    A session owns four bounded LRU caches:
    - a {b compiled-unit cache} keyed by (program content hash, profile
      name) — a typed program is compiled at most once per profile per
      session;
    - a {b function memo} ({!Cdcompiler.Pipeline.memo}) behind it, keyed
      by the exact serialized inputs of the per-function pass stack and
      line-table rebuild — a unit-cache miss re-runs those stages only
      for the functions that differ from an earlier compile;
    - a {b linked-image cache} keyed by the same (program, profile)
      identity when the unit came out of {!compile} (no re-serialization
      at link time), or by the unit's own content hash otherwise;
    - an {b observation store} keyed by (image id, fuel, input) that
      turns replayed executions (reduction re-validation, localization,
      escalation replays, triage) into lookups.

    Content keys are (length, murmur3{_A}, murmur3{_B}) over the value's
    [Marshal] serialization; both program types are pure data, so equal
    keys substitute structurally identical artefacts.  Hot paths never
    re-serialize: bounded identity memos remember the key of recently
    seen programs/units, so a cold cache pass costs one serialization
    per distinct program rather than one per lookup.  Observations are
    stored raw (pre-normalization) and the VM is deterministic at fixed
    fuel, so a hit is observationally identical to a re-execution.
    Executions that differ in more than (image, input, fuel) — sanitizer
    hooks, coverage, print tracing — must bypass {!run_batch} and call
    the VM directly on {!image} (or go through {!run_traced}).

    When [disk_dir] is given, a persistent {!Diskcache} layers behind
    the unit cache and the observation store: in-memory misses consult
    the directory before recomputing, and fresh results are written
    through, so warm state survives process restarts.  Linked images are
    never stored on disk (linking from a cached unit is cheap and the
    image holds pre-decoded closures).

    [cache_mb = 0] disables caching: every stage recomputes, which is
    the reference behaviour cross-validation compares against (the disk
    layer is inert in that mode too). *)

type cache_stats = Lru.stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  bytes : int;
}

type disk_stats = Diskcache.stats = {
  disk_hits : int;
  disk_misses : int;
  disk_stores : int;
  disk_bytes : int;  (** running on-disk byte count (advisory) *)
  disk_entries : int;  (** running on-disk entry count (advisory) *)
}

type stats = {
  units : cache_stats;
  funcs : cache_stats;  (** the per-function compile memo *)
  images : cache_stats;
  observations : cache_stats;
  budget_bytes : int;
  caching : bool;
  key_calls : int;  (** content-key computations (Marshal + hash) *)
  key_seconds : float;  (** wall time spent computing content keys *)
  disk : disk_stats option;  (** [None] without a disk directory *)
}

type linked
(** A linked executable image plus its interned id.  A handle holds no
    execution scratch: runs use the calling domain's arena
    ({!Cdvm.Exec.run_linked}).  Handles from a caching session are
    shared: callers must not mutate the underlying image. *)

type t

val create : ?cache_mb:int -> ?disk_dir:string -> ?disk_mb:int -> unit -> t
(** [create ()] makes a session with a [cache_mb] MiB budget (default
    128), split 12.5% units / 12.5% function memo / 25% images / 50%
    observations, each side evicted least-recently-used.  [cache_mb = 0]
    disables caching, the function memo included.
    [disk_dir] adds a persistent store (capped at [disk_mb] MiB,
    default 512) behind the unit cache and observation store. *)

val caching : t -> bool
val budget_bytes : t -> int

val prog_key : Minic.Tast.tprogram -> int * int * int
(** Content key of a typed program (exposed for diagnostics/tests). *)

val compile : t -> Cdcompiler.Policy.profile -> Minic.Tast.tprogram ->
  Cdcompiler.Ir.unit_
(** Cached {!Cdcompiler.Pipeline.compile}; a miss compiles through the
    session's function memo. *)

val compile_profiles : ?jobs:int -> t -> Cdcompiler.Policy.profile list ->
  Minic.Tast.tprogram -> (string * Cdcompiler.Ir.unit_) list
(** [compile_profiles t ps tp]: [(pname, unit)] per profile, in order;
    the program is serialized once, misses go through the shared
    {!Cdutil.Pool} when [jobs > 1]. *)

val link : t -> Cdcompiler.Ir.unit_ -> linked
(** Cached {!Cdvm.Image.link}.  Re-linking an evicted unit re-interns
    the same image id, so stored observations survive eviction.  Units
    produced by {!compile} on this session link without serializing. *)

val image_weight : Cdvm.Image.t -> int
(** The image cache's weight of a linked handle, in bytes: an estimate
    of what the handle keeps reachable (the image and its source unit). *)

val image : linked -> Cdvm.Image.t
(** The underlying image, for executions the observation store must not
    serve (hooks, coverage, tracing). *)

val run_batch : t -> linked -> inputs:string array -> fuel:int ->
  Cdvm.Exec.result array
(** [run_batch t l ~inputs ~fuel]: the observation-store-backed plain
    execution of a linked image, the session's one cached-execution
    path (a single run is a one-input batch): {!lookup}, then
    {!run_misses}.  Element [i] is the raw observation of [inputs.(i)]
    at [fuel]; all store misses execute as one VM batch on the calling
    domain's arena ({!Cdvm.Exec.run_batch}), amortizing the
    per-execution reset.  Safe from any domain. *)

type lookup = {
  found : Cdvm.Exec.result option array;
      (** element [i]: the stored observation of [inputs.(i)], [None]
          where the stores miss *)
  misses : int array;  (** the indices of the misses, ascending *)
}
(** The first phase of {!run_batch}. *)

val lookup : t -> linked -> inputs:string array -> fuel:int -> lookup
(** Ask the stores (memory, then disk) for every input at [fuel],
    executing nothing; each input counts as one hit or one miss.  On a
    caching-disabled session every input is a miss and no store is
    consulted. *)

val run_misses : t -> linked -> inputs:string array -> fuel:int -> lookup ->
  Cdvm.Exec.result array
(** The second phase of {!run_batch}: execute the misses of a {!lookup}
    made with the same [inputs] and [fuel], write them back to the
    stores, and return the whole batch as {!run_batch} would.  Looks
    nothing up again, so no input is counted twice. *)

val run_traced : t -> linked -> observer:Cdvm.Observer.t -> input:string ->
  fuel:int -> Cdvm.Exec.result
(** Observed execution of a linked image.  The observer makes the run
    more than a function of (image, input, fuel), so the observation
    store is bypassed: [run_traced] {e always} executes.  Use it for
    trace recording and print tracing; plain runs belong in
    {!run_batch}. *)

val stats : t -> stats
val reset_stats : t -> unit
(** Reset hit/miss/key-time counters (cache contents are kept). *)

val hit_rate : cache_stats -> float
val stats_to_string : stats -> string

val stats_to_json : stats -> string
(** The same stats block as one JSON object (the [--stats-json] form,
    also embedded in the serve daemon's stats responses). *)
