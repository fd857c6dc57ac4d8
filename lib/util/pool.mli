(** A small work pool built on OCaml 5 domains.

    The pool owns [jobs - 1] worker domains; the domain that submits a
    batch participates in executing it ("caller helps"), so a pool with
    [jobs = 1] degenerates to plain sequential execution with no domain
    spawned, and nested [map] calls issued from inside a task cannot
    deadlock: the nesting task drains its own batch while workers help
    opportunistically.  {!async} and {!await} follow the same design
    for one task: the awaiting domain runs a task no worker has claimed,
    and otherwise helps drain the queue.

    All functions are safe to call from any domain. *)

type t
(** A handle to a pool of worker domains. *)

val auto_jobs : unit -> int
(** [max 1 (Domain.recommended_domain_count () - 1)]: one slot is left
    for the submitting domain itself. *)

val default_jobs : unit -> int
(** Job count used when none is given explicitly: the value of
    {!set_default_jobs} if called, else the [COMPDIFF_JOBS] environment
    variable if set to a positive integer, else {!auto_jobs}. *)

val set_default_jobs : int -> unit
(** Override {!default_jobs} for the rest of the process (clamped to at
    least 1).  If the shared global pool already exists with a different
    size it is drained and rebuilt lazily on next use. *)

val create : ?jobs:int -> unit -> t
(** [create ~jobs ()] spawns [jobs - 1] worker domains (default
    {!default_jobs}). *)

val jobs : t -> int
(** Parallelism of the pool, including the submitting domain. *)

val global : unit -> t
(** The shared global pool {!map}/{!run} default to (created on first
    use, shut down at exit). *)

val quiesce : unit -> unit
(** Shut down the shared global pool if it exists; it is rebuilt lazily
    on the next {!map}/{!run}.  Idle worker domains still participate in
    every stop-the-world minor collection, so a single-domain
    allocation-heavy phase (e.g. a benchmark) can reclaim real time by
    quiescing the pool first. *)

val pending : t -> int
(** Number of queued helper tasks not yet claimed by a worker — a
    utilization signal for telemetry ([0] = the pool is keeping up). *)

val shutdown : t -> unit
(** Signal the workers to stop and join them.  Idempotent.  A pool keeps
    working after [shutdown] — batches then run entirely on the calling
    domain. *)

val map : ?pool:t -> ('a -> 'b) -> 'a list -> 'b list
(** [map f xs] applies [f] to every element, possibly in parallel, and
    returns the results in input order.  Uses the shared global pool
    when [?pool] is omitted (created on first use, shut down at exit).
    If one or more applications raise, every task still runs to
    completion and the exception of the smallest-index failure is
    re-raised (with its original backtrace) on the calling domain. *)

val map_array : ?pool:t -> ('a -> 'b) -> 'a array -> 'b array
(** Array variant of {!map}. *)

val run : ?pool:t -> (unit -> 'a) list -> 'a list
(** [run thunks] executes the thunks, possibly in parallel; results in
    input order.  Same failure contract as {!map}. *)

type 'a promise
(** A task submitted with {!async}. *)

val async : ?pool:t -> (unit -> 'a) -> 'a promise
(** [async f] queues [f] for the pool's workers (the shared global pool
    when [?pool] is omitted) and returns at once.  A pool without
    workers (size 1, or shut down) queues nothing: [f] runs at
    {!await}, on the awaiting domain, so a size-1 pool stays sequential
    and spawns no domain. *)

val await : 'a promise -> 'a
(** [await p] is the result of [p]'s task.  A task no worker has
    claimed yet runs inline; otherwise the awaiting domain helps drain
    the pool's queue (which holds the nested {!map} batches of the task
    itself) until the task is done.  An exception raised by the task is
    re-raised here with its original backtrace, as {!map} does. *)
