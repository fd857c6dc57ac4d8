(** CompDiff-AFL++ — Algorithm 1 of the paper, complete.

    A coverage-guided fuzzing loop drives the instrumented build
    [B_fuzz]; every generated input additionally runs on the [k]
    differential binaries, and inputs with divergent (normalized,
    checksummed) outputs are saved and triaged.

    Sanitizers compose exactly as in AFL++: they instrument [B_fuzz]
    only, leaving the differential set untouched.

    The oracle checks inputs in batches of 64
    ({!Compdiff.Oracle.check_batch}), each submitted when full and once
    more when the fuzzing loop ends; the verdicts are then triaged (and
    reduced on save) in the order the fuzzer generated the inputs.
    Without [divergence_feedback] a verdict never reaches the fuzzer, so
    the campaign is the one per-input checks would give.  With
    [divergence_feedback] the fuzzer needs each verdict before it goes
    on, so every batch is the one input. *)

type config = {
  seeds : string list;              (** initial corpus *)
  max_execs : int;                  (** execution budget on [B_fuzz] *)
  fuel : int;                       (** per-execution instruction budget *)
  rng_seed : int;
  profiles : Cdcompiler.Policy.profile list;
      (** the differential implementation set (default: all ten) *)
  sanitizer : Sanitizers.San.kind option;
      (** instrument [B_fuzz] with this sanitizer, as AFL++ would *)
  normalize : Compdiff.Normalize.filter;
      (** per-target output normalization (RQ5) *)
  divergence_feedback : bool;
      (** the paper's Section 5 proposal (NEZHA-style): an input with a
          previously unseen divergence signature is fed back into the
          mutation queue even without new coverage *)
  jobs : int;
      (** worker parallelism of the differential oracle;
          [0] (the default) means {!Cdutil.Pool.default_jobs} *)
  reduce_on_save : bool;
      (** run {!Compdiff.Reduce} on every first-of-its-signature
          divergent input as it is saved (default [true]), so the triage
          store holds reduced reproducers alongside the raw blobs *)
  reduce_checks : int;
      (** per-divergence validation budget of the on-save reduction *)
  session : Engine.Session.t option;
      (** engine session shared by the [B_fuzz] compile, the oracle, and
          the on-save reductions ([None], the default, uses a private
          caching-disabled session) *)
}

val default_config : config

type campaign = {
  fuzz : Fuzzer.campaign;           (** the underlying fuzzing run *)
  diffs : Compdiff.Triage.t;        (** the "diffs/" directory *)
  oracle : Compdiff.Oracle.t;
  diff_checks : int;                (** oracle invocations *)
}

val run : ?config:config -> Minic.Tast.tprogram -> campaign
(** [run tp] runs one campaign.  With [jobs > 1] and no
    [divergence_feedback], a full batch is checked on the shared
    {!Cdutil.Pool} ({!Cdutil.Pool.async}) while the fuzz loop fills the
    next one.  At most one batch is in flight: it is awaited, and its
    verdicts judged in input order, before the next is submitted, and
    the last one before [run] returns.  Under [divergence_feedback], or
    at [jobs = 1], every batch is checked at once on the calling domain.
    The campaign (queue, execs, crashes, triage, [diff_checks]) is the
    same in every case. *)

val found_divergence : campaign -> bool
