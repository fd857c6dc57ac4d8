(** An engine session: the compile → link → observe pipeline behind
    content-addressed caches (see DESIGN.md §10 and §12).

    A session owns four bounded LRU caches:
    - a {b compiled-unit cache} keyed by (program content hash, profile
      name) — a typed program is compiled at most once per profile per
      session;
    - a {b function memo} ({!Cdcompiler.Fmemo}) behind it and behind
      the image cache and the signatures, keyed by exact paths rooted in
      each typed function's bytes — lowering, the pass stack, linking
      and the signature's dataflow facts run only for the functions that
      differ from an earlier compile (lowering, linking and facts are
      stored on their key's second request);
    - a {b linked-image cache} keyed by the same (program, profile)
      identity when the unit came out of {!compile} (no re-serialization
      at link time), or by the unit's own content hash otherwise;
    - an {b observation store} keyed by (image id, fuel, input) that
      turns replayed executions (reduction re-validation, localization,
      escalation replays, triage) into lookups.  It admits an
      observation on its key's second request (see {!lookup}), so
      one-shot executions do not occupy it.

    Content keys are (length, murmur3{_A}, murmur3{_B}) over the value's
    [Marshal] serialization (for a program: its globals and each typed
    function's bytes, each length-prefixed); both program types are
    pure data, so equal keys substitute structurally identical
    artefacts.  Hot paths never
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

type stage_stats = { stage_hits : int; stage_misses : int }
(** Lookups of one per-function stage in the function memo; a key's
    first request to an admitting stage is a miss. *)

type stats = {
  units : cache_stats;
  funcs : cache_stats;  (** the per-function memo, every stage together *)
  stages : (string * stage_stats) list;
      (** per stage: ["lower"], ["passes"] (the first round and the
          inline cleanups), ["link"], ["sign"] *)
  images : cache_stats;
  observations : cache_stats;
  budget_bytes : int;
  caching : bool;
  key_calls : int;
      (** serializations for keys: one per typed function of each new
          program, one per unit keyed by its own content *)
  key_seconds : float;  (** wall time spent computing content keys *)
  declined : int;
      (** executed observations the admission filter kept out of the
          in-memory store (their key's first request, see {!lookup}) *)
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
(** Content key of a typed program, the program half of its unit-store
    key: (length, murmur3{_A}, murmur3{_B}) of the globals and each
    typed function's exact bytes (exposed for diagnostics/tests). *)

val compile : t -> Cdcompiler.Policy.profile -> Minic.Tast.tprogram ->
  Cdcompiler.Ir.unit_
(** Cached compile; a miss lowers the program and optimizes it through
    the session's function memo ({!Cdcompiler.Lower.lower_program} and
    {!Cdcompiler.Pipeline.optimize_keyed}), each function looked up.  The
    unit skips the line-table rebuild, which only instruction-level
    localization reads ({!Cdcompiler.Pipeline.with_lines} adds it):
    lined on demand, it equals {!Cdcompiler.Pipeline.compile}.  With
    caching disabled it is {!Cdcompiler.Pipeline.compile}. *)

val compile_profiles : ?jobs:int -> t -> Cdcompiler.Policy.profile list ->
  Minic.Tast.tprogram -> (string * Cdcompiler.Ir.unit_) list
(** [compile_profiles t ps tp]: [(pname, unit)] per profile, in order,
    each as {!compile} gives it.  The program is serialized once and
    lowered once per distinct {!Cdcompiler.Policy.lowering_of}, by the
    first profile whose unit is not stored (twice when two domains reach
    it at the same moment; neither waits for the other); misses go
    through the shared {!Cdutil.Pool} when [jobs > 1]. *)

val link : t -> Cdcompiler.Ir.unit_ -> linked
(** Cached {!Cdvm.Image.link}.  Re-linking an evicted unit re-interns
    the same image id, so stored observations survive eviction.  Units
    produced by {!compile} on this session link without serializing,
    and only their functions missing from the function memo are linked
    ([Image.link ?memo]). *)

val facts_memo : t -> Cdcompiler.Ir.unit_ ->
  bool Cdcompiler.Fmemo.keyed option
(** The memo for {!Compdiff.Binsig.signature} of [u]: its function keys
    and the session's store of per-function facts, when [u] came out of
    {!compile} on this caching session (recently enough that its keys
    are still remembered); [None] otherwise, and the signature is
    computed without one. *)

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
  admitted : bool array;
      (** element [j]: whether miss [j]'s observation is stored in memory
          once executed ([false] on a key's first request) *)
}
(** The first phase of {!run_batch}. *)

val lookup : t -> linked -> inputs:string array -> fuel:int -> lookup
(** Ask the stores (memory, then disk) for every input at [fuel],
    executing nothing; each input counts as one hit or one miss.

    The in-memory store admits a key on its second request: a
    doorkeeper bitmap of key fingerprints sits in front of it.  A key
    whose fingerprint is absent is recorded and counted as a miss
    without consulting memory; its observation will not be stored.  A
    key whose fingerprint is present is looked up, and stored on a
    miss.  Fingerprints are cleared periodically, so a miss may be a
    stored key whose fingerprint was cleared; that costs one execution,
    never a different result.  The disk tier is consulted on every
    memory miss.

    On a caching-disabled session every input is a miss and no store is
    consulted. *)

val run_misses : t -> linked -> inputs:string array -> fuel:int -> lookup ->
  Cdvm.Exec.result array
(** The second phase of {!run_batch}: execute the misses of a {!lookup}
    made with the same [inputs] and [fuel], store the admitted ones in
    memory (counting the others as [declined]), write every one through
    to disk, and return the whole batch as {!run_batch} would.  Looks
    nothing up again, so no input is counted twice. *)

val probe : t -> linked -> inputs:string array -> fuel:int ->
  Cdvm.Exec.result array option
(** [probe t l ~inputs ~fuel]: the raw observation of every input at
    [fuel] from the in-memory store, or [None] if it lacks one.  Memory
    only: the disk tier is not consulted.  It executes nothing, counts
    nothing and records nothing in the doorkeeper, so a caller that
    falls back to {!lookup} counts each input once, and a key's first
    request is still declined.  A key the doorkeeper has not seen is a
    miss, as {!lookup} would not consult memory for it.  [None] on a
    caching-disabled session. *)

val count_hits : t -> int -> unit
(** [count_hits t n] counts [n] observation-store hits: the lookups a
    caller answered through {!probe} and kept. *)

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

val stats_json : stats -> Cdutil.Json.t
(** The same stats block as one JSON object: the ["session"] member of
    the [--stats-json] object and of the serve daemon's stats. *)
