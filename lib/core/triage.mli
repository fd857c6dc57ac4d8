(** Divergence triage (paper §3.2, "Bug-triggering inputs").

    Many inputs trigger the same bug; entries are bucketed by a
    canonical-form signature of the behaviour partition (which
    implementations agree with which), the differential analogue of AFL
    crash deduplication. *)

type reduced = {
  red_input : string;
      (** the shrunk reproducer ({!Reduce}-validated: same class) *)
  red_observations : (string * Oracle.observation) list;
  red_checks : int;  (** oracle validations the reduction spent *)
}

type diff_entry = {
  input : string;
  observations : (string * Oracle.observation) list;
  signature : int;
  mutable reduced : reduced option;
      (** filled in by {!attach_reduced} once the reducer has run *)
}

type t

val signature_of_partition : int array -> int
(** Renaming-invariant hash of a partition: [[0;0;1]] and [[1;1;0]] get
    the same signature, [[0;1;0]] a different one. *)

val create : unit -> t

val add :
  t -> Oracle.t -> input:string -> (string * Oracle.observation) list ->
  [ `New | `Duplicate ]
(** Record a divergent input; [`New] iff its signature was not seen. *)

val unique_count : t -> int
val total_count : t -> int

val entries : t -> diff_entry list
(** All recorded entries, oldest first. *)

val representatives : t -> diff_entry list
(** One entry per unique signature, oldest first. *)

val attach_reduced : t -> input:string -> reduced -> unit
(** Record a reduced reproducer on the entry whose raw input is
    [input]; no-op if no such entry exists. *)

val reduced_count : t -> int

(** {2 Report-level dedup}

    The partition signature is the cheap online dedup; reports group
    one level further, by (localized function, suggested root cause),
    computed on the reduced reproducer when one is attached. *)

type report_key = {
  rk_fn : string option;     (** function the divergence localizes to *)
  rk_label : string option;  (** Table 5 label, when [program] given *)
}

val report_key_to_string : report_key -> string

val report_buckets :
  t -> Oracle.t -> ?program:Minic.Ast.program -> unit ->
  (report_key * diff_entry list) list
(** One bucket per key over {!representatives}, first-seen order;
    inside a bucket the smallest reproducer leads. *)

val entry_deep : Oracle.t -> ?limit:int -> diff_entry -> Localize.t option
(** Instruction-level localization of one entry
    ({!Localize.of_divergence} at the [Steps] level, on the reduced
    reproducer when one is attached, else on the raw input); [None]
    when the observations hold no divergent pair.  Expensive: records
    two [Steps]-level traces. *)

(** {2 Root-cause suggestion}

    Maps a localized divergence through UnstableCheck's static findings
    to a Table 5 root-cause label: the analyzer names the sites whose
    semantics are implementation-defined, the localization names the
    function where behaviour first diverged, and their intersection
    attributes the bug. *)

type root_cause = {
  rc_label : string;                    (** Table 5 category *)
  rc_finding : Staticcheck.Finding.t;   (** the supporting static finding *)
  rc_in_function : bool;
      (** the finding lies in the function that diverged *)
}

val table5_label : Staticcheck.Finding.kind -> string
(** Finding kind -> Table 5 category name ([UninitMem], [IntError],
    [MemError], [PointerCmp], [Misc.]). *)

val suggest_root_cause :
  Minic.Ast.program -> Localize.t -> root_cause option
(** Run UnstableCheck over the (untyped) program and pick the finding
    that best explains the localization; [None] when the analyzer is
    silent or no observable event diverges. *)

val root_cause_to_string : root_cause -> string

(** {2 Meta-checker tally}

    Table-3-style FP/FN accounting per (tool, Table 5 bucket), fed by
    the metamorphic meta-checker's flags. *)

module Tally : sig
  type counts = {
    mutable fp : int;      (** reports surviving a UB-eliminating rewrite *)
    mutable fn : int;      (** reports lost under a UB-preserving rewrite *)
    mutable xfn : int;     (** oracle-cross-validated silent sanitizers *)
    mutable drift : int;   (** informational verdict changes *)
  }

  type t

  val create : unit -> t

  val bump :
    t -> tool:string -> bucket:string -> [ `Fp | `Fn | `Xfn | `Drift ] -> unit

  val rows : t -> ((string * string) * counts) list
  (** Rows in first-bump order, keyed by (tool, bucket). *)

  val total : t -> counts

  val to_string : t -> string
  (** Rendered table with a trailing total row. *)
end
