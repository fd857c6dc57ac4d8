(** The CompDiff oracle (paper Section 3.1).

    A program is compiled once with every implementation in the set;
    {!check} runs all resulting binaries on one input, normalizes their
    outputs, and compares MurmurHash3 checksums of
    [(output, termination status)]. For a program with deterministic
    output, any disagreement proves the presence of unstable code (or a
    compiler bug) — the oracle has no false positives by construction.

    Timeouts follow the paper's RQ6: when only part of the binaries hang,
    the fuel budget is escalated (up to [max_fuel]) until the hang set
    stabilizes; an all-hang is agreement, a residual mixed hang a
    divergence.

    Execution is optimized without changing verdicts: binaries with
    equal {!Binsig.signature} are grouped into equivalence classes and
    executed once per class, and fuel escalation re-runs only the
    classes that hung, reusing finished observations (and their
    [fuel_used]).  A round runs one task per class, through the shared
    {!Cdutil.Pool} when [jobs > 1]: it looks the class's inputs up in
    the session, executes the misses, normalizes and checksums each
    observation, so a verdict compares one checksum per class.  One
    escalation loop, under {!observe_batch} and {!check_batch}, does all
    of this; {!observe}/{!check} are their one-input case.
    {!observe_naive}/{!check_naive} provide the
    sequential dedup-free reference for cross-validation; both paths
    produce structurally identical results. *)

type observation = {
  output : string;          (** normalized stdout *)
  status : Cdvm.Trap.status;
  fuel_used : int;
}

type verdict =
  | Agree of observation
      (** every implementation produced this observation *)
  | Diverge of (string * observation) list
      (** per-implementation observations, in implementation order *)

type stats = {
  checks : int;            (** oracle checks (inputs judged) *)
  vm_execs : int;
      (** observations requested from the engine; equals actual VM
          executions when the session does not cache — with a caching
          session, observation-store hits replay without re-executing
          (see {!Engine.Session.stats}) *)
  dedup_saved : int;       (** executions avoided by binary dedup *)
  escalation_saved : int;  (** executions avoided by incremental escalation *)
}
(** Cumulative execution counters of one oracle ({!observe_batch} and
    everything built on it; the naive path is never counted).
    [vm_execs + dedup_saved + escalation_saved] is what the naive oracle
    would have executed for the same checks. *)

type counters
(** A set of execution counters, the source of {!stats}: {!counters}
    makes one at zero, {!counted} reads it. *)

val counters : unit -> counters
val counted : counters -> stats

type t

val create :
  ?session:Engine.Session.t ->
  ?profiles:Cdcompiler.Policy.profile list ->
  ?normalize:Normalize.filter ->
  ?fuel:int ->
  ?max_fuel:int ->
  ?compare_status:bool ->
  ?jobs:int ->
  ?counters:counters ->
  Minic.Tast.tprogram ->
  t
(** [create tp] compiles [tp] with every profile (default: the paper's ten
    implementations). [session] routes compilation, linking and plain
    execution through a shared {!Engine.Session} (unit/image caches and
    observation store); without one the oracle uses a private
    caching-disabled session, which recomputes every stage — the
    historical behaviour. [normalize] post-processes outputs before
    comparison (default: identity). [fuel] is the base execution budget
    (default 200k instructions), escalated ×4 up to [max_fuel] under
    partial timeout. [compare_status:false] restricts the oracle to
    stdout only (the ablation of DESIGN.md). [jobs] (default
    {!Cdutil.Pool.default_jobs}) enables pooled compilation and
    execution when [> 1].  The oracle counts into [counters] (default: a
    fresh set); oracles given one set count into it together, so its
    {!counted} outlives any one of them. *)

val with_program : t -> ?names:string list -> Minic.Tast.tprogram -> t
(** [with_program t tp] is {!create} of [tp] with [t]'s session,
    normalize, base fuel, fuel cap, [compare_status] and jobs, over
    [t]'s profiles or, given [names], over those of them, in the order
    named.  Compiles go through the session, so units shared with
    earlier oracles come from its cache.  Raises [Invalid_argument] on a
    name that is not one of [t]'s profiles. *)

val names : t -> string list
(** Implementation names, in the order [Diverge] reports them. *)

val binaries : t -> (string * Cdcompiler.Ir.unit_) list
(** The compiled binaries, for re-execution (e.g. trace localization).
    Through a caching session they carry no rebuilt line tables
    ({!Cdcompiler.Pipeline.with_lines} adds them). *)

val profiles : t -> Cdcompiler.Policy.profile list
(** The profiles the binaries were compiled with, in the same order. *)

val program : t -> Minic.Tast.tprogram
(** The program the binaries were compiled from. *)

val session : t -> Engine.Session.t
(** The engine session this oracle compiles, links and executes through
    (a private caching-disabled one when none was passed to {!create}).
    Derived pipelines — reduction's re-oracles, localization's trace
    images — reuse it so their replays share the caches. *)

val jobs : t -> int

val base_fuel : t -> int
(** The base execution budget this oracle was created with. *)

val normalize : t -> Normalize.filter

val verdict_fuel : t -> (string * observation) list -> int
(** The execution budget needed to replay these observations faithfully:
    the maximum [fuel_used] (at least [base_fuel]).  A terminating run
    is identical under any budget at least its [fuel_used]; a hang's
    [fuel_used] is the escalated budget it was observed at.  Trace
    re-executions (localization, reduction) must use this rather than
    the base fuel, or a divergence found after escalation replays as a
    spurious hang. *)

val class_count : t -> int
(** Number of behavioral equivalence classes among the binaries. *)

val classes : t -> int array
(** Class index per binary, in implementation order. *)

val class_images : t -> Cdvm.Image.t array
(** The linked image each class executes, by class index. *)

val stats : t -> stats
(** What the oracle's counter set has counted: with a shared set, every
    sharing oracle's work. *)

val reset_stats : t -> unit
(** Zeroes the oracle's counter set. *)

val sum_stats : stats list -> stats
(** Field-wise sum of the counters (over a suite). *)

val stats_json : stats -> Cdutil.Json.t
(** The execution counters as one JSON object: the ["oracle"] member of
    the [--stats] object and of the serve daemon's stats. *)

val checksum : t -> observation -> int32
(** The MurmurHash3 checksum CompDiff compares (paper §3.2, "Output
    examination"). *)

val observe : t -> input:string -> (string * observation) list
(** Run every binary on [input] with timeout escalation: the one-input
    {!observe_batch}, observationally identical to {!observe_naive}. *)

val observe_naive : t -> input:string -> (string * observation) list
(** The sequential reference: every binary, full re-runs on escalation. *)

val observe_batch : t -> inputs:string array -> (string * observation) list array
(** [observe_batch t ~inputs]: element [k] equals
    [observe_naive t ~input:inputs.(k)] (deduped, pooled, incremental),
    and the stats grow by exactly what [k] separate one-input calls
    would add.  All inputs pending at one fuel level run through a
    single batched VM session per class ({!Engine.Session.run_batch}),
    amortizing arena acquisition and reset.  Escalation is
    level-synchronous: every input follows the base, ×4, … sequence and
    drops out when its hang set stabilizes. *)

val check : t -> input:string -> verdict
(** [observe] followed by checksum comparison (the one-input
    {!check_batch}). *)

val check_naive : t -> input:string -> verdict
(** [observe_naive] followed by checksum comparison. *)

val check_batch : t -> inputs:string array -> verdict array
(** {!observe_batch}'s observations judged per input: element [k]
    equals [check_naive t ~input:inputs.(k)].  The checksums are taken
    once per class, in the class's task, and compared across classes. *)

val naive_mismatch : t -> inputs:string list -> string option
(** The first of [inputs] whose {!check_batch} verdict differs from its
    {!check_naive} one, [None] when all agree: the cross-validation of
    dedup, pooling, batching and incremental escalation against the
    sequential reference.  Counts the batch in {!stats}. *)

val check_stored : t -> inputs:string array -> verdict array option
(** [check_stored t ~inputs]: {!check_batch}'s verdicts when its first
    round needs no execution and no second round follows — the
    session's in-memory store holds every class's base-fuel observation
    of every input ({!Engine.Session.probe}) and no input has a mixed
    hang below the fuel cap — and [None] otherwise.  On [Some] the
    oracle and session counters grow by exactly what that all-hit
    {!check_batch} adds; on [None] by nothing, so a fallback to
    {!check_batch} counts every lookup once.  Executes nothing. *)

val is_divergence : verdict -> bool

val partition : t -> (string * observation) list -> int array
(** Behaviour classes per implementation (same class = same checksum),
    numbered in order of first appearance, so equal groupings give
    equal arrays: the raw material of the Figure 1/2 subset studies. *)

val report_to_string : input:string -> (string * observation) list -> string
(** Human-readable divergence report in the paper's bug-report format:
    the triggering input, the reproducing configurations, and the
    divergent outputs. *)

val report_of_rows : input:string -> (string * string * string) list -> string
(** {!report_to_string} over [(impl, output, status string)] rows: the
    one renderer, also used for verdicts that arrive from a serve
    daemon, so both print the same bytes. *)
