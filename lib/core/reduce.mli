(** Oracle-validated divergence reduction (paper §5).

    The reporting pipeline does not end when a diverging input is saved:
    the paper's real-world reports are all *reduced* reproducers.  This
    module shrinks a diverging [(program, input)] pair with delta
    debugging (Zeller & Hildebrandt's ddmin over the input bytes, then
    byte canonicalization to zero/printable, then structural program
    reduction), re-validating every candidate through {!Oracle.check} so
    the reduced pair still exhibits the {e same} divergence:

    - the behaviour partition keeps the same canonical signature
      ({!Triage.signature_of_partition}), which pins the implementation
      pair the divergence is between, and
    - the divergence still localizes to the same function
      (the first differing event of {!Localize.of_divergence} at the
      [Prints] level), with traces replayed at {!Oracle.verdict_fuel}
      on the linked executor.

    A candidate that merely diverges differently (a new bug uncovered by
    the edit) is rejected, so reduction can only preserve the original
    root cause.  The reduced input never grows and the reduced program
    never gains statements, by construction. *)

type cls = {
  cls_partition : int array;
      (** the behaviour partition ({!Oracle.partition}, canonical: class
          ids in first-seen order); two divergences are in one class
          only if these are equal *)
  cls_signature : int;
      (** its hash ({!Triage.signature_of_partition}), for triage *)
  cls_pair : (string * string) option;
      (** the first disagreeing implementation pair (a function of the
          partition, so preserved whenever the signature is) *)
  cls_fn : string option;
      (** function the divergence localizes to; [None] when the
          observable traces are identical (status-only divergence) *)
}
(** What a reduction step must preserve: the divergence class. *)

type stats = {
  checks : int;          (** oracle validations spent *)
  input_before : int;    (** raw input size, bytes *)
  input_after : int;     (** reduced input size, bytes *)
  stmts_before : int;    (** program statements (0 if not reduced) *)
  stmts_after : int;
}

type result = {
  red_input : string;
  red_observations : (string * Oracle.observation) list;
      (** observations of the final validated reduced pair *)
  red_program : Minic.Ast.program option;
      (** the structurally reduced program, when program reduction ran
          and made progress *)
  red_class : cls;
  red_stats : stats;
}

val class_of :
  Oracle.t -> input:string -> (string * Oracle.observation) list -> cls
(** The divergence class of a verdict: partition signature, first
    disagreeing pair, and localized function (traced at
    {!Oracle.verdict_fuel}). *)

val input_ratio : stats -> float
(** [1 - after/before] (0 when the input was already empty). *)

type summary = {
  sm_divergences : int;    (** reductions summarized *)
  sm_raw_bytes : int;      (** input bytes before, summed *)
  sm_reduced_bytes : int;  (** input bytes after, summed *)
  sm_median_ratio : float; (** median {!input_ratio}; 0 on none *)
  sm_checks : int;         (** oracle validations, summed *)
}
(** Many reductions at a glance (the paper's §5 reporting step). *)

val summarize : stats list -> summary

val summary_json : summary -> Cdutil.Json.t
(** The ["reduce"] member of the [--stats] object. *)

val count_stmts : Minic.Ast.program -> int
(** Statements in pre-order, nested blocks included (the program-size
    metric of {!stats}). *)

val candidates : Minic.Ast.program -> Minic.Ast.program Seq.t
(** Every one-step simplification of a program, lazily, in the order
    program reduction tries them: function drops, global drops, then
    per-statement rewrites.  Candidates need not typecheck. *)

val contradicts :
  int array -> Oracle.t -> int * Oracle.observation -> int * Oracle.observation ->
  bool
(** [contradicts part o (i, oi) (j, oj)]: the program-reduction screen's
    test.  [oi] and [oj] are observations by [o] of profiles [i] and [j]
    (indices into [part]); they contradict [part] when both terminated
    and their checksums are equal across two classes of [part] or
    different within one.  A hang never contradicts. *)

val reduce :
  ?max_checks:int ->
  ?program:Minic.Ast.program ->
  ?reoracle:(Minic.Tast.tprogram -> Oracle.t) ->
  Oracle.t ->
  input:string ->
  (string * Oracle.observation) list ->
  result option
(** [reduce oracle ~input obs] shrinks a divergence previously observed
    as [obs = Oracle.observe oracle ~input].  Returns [None] when [obs]
    is not actually a divergence.

    Input reduction (ddmin + canonicalization) always runs and uses
    [oracle] directly, one {!Oracle.check} per candidate — deduped,
    pooled and linked exactly like any other check, so reduction
    inherits the executor's parallelism.

    Program reduction runs when [program] (the untyped AST the oracle's
    binaries were compiled from) is given: statements are dropped,
    branches flattened, expressions canonicalized to zero, functions and
    globals removed — greedily, revalidating after every step.  Each
    candidate that typechecks is first observed on two profiles only
    (the screen, DESIGN.md §8.1) and rejected there when their
    terminated observations already contradict the original partition;
    any other candidate is recompiled through [reoracle] and checked in
    full.  The screen only saves work: the result equals that of full
    checks alone.

    [reoracle] (default: {!Oracle.with_program}[ oracle]) must return,
    for every program, an oracle over [oracle]'s profiles in the same
    order, with settings (session aside) that do not depend on the
    program; the screen uses the settings of [reoracle program].
    Raises [Invalid_argument] when its profiles differ from [oracle]'s.

    [max_checks] (default 1000) bounds the total validation budget. *)
