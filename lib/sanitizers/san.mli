(** Driver for sanitizer-instrumented runs.

    A "sanitizer build" is the unoptimizing build (the same compiler
    configuration the fuzzer uses for [B_fuzz]) executed with the
    corresponding VM hook set. A report terminates the run with
    {!Cdvm.Trap.San_report}. *)

type kind = Asan | Ubsan | Msan

val name : kind -> string

val hooks : kind -> Cdvm.Hooks.t
(** The VM instrumentation implementing this sanitizer's checks (and its
    documented blind spots — see {!Asan}, {!Ubsan}, {!Msan}). *)

val all : kind list

val build_profile : Cdcompiler.Policy.profile
(** The compiler configuration sanitizer builds use. *)

type build
(** A reusable sanitizer build: the instrumented binary compiled and
    linked once ({!Cdvm.Image.link}).  One build serves all three
    sanitizers (the hook set is per-run).  Its runs use the calling
    domain's arena, so a build holds no scratch state and may be shared
    across tasks and domains. *)

val build : ?session:Engine.Session.t -> Minic.Tast.tprogram -> build
(** [build ?session tp]: with a session, the compile and link are served
    by its unit/image caches; the sanitized executions themselves always
    run directly (hooked runs must bypass the observation store). *)

val run_built : ?fuel:int -> kind -> build -> input:string -> Cdvm.Exec.result

val detects_built : ?fuel:int -> kind -> build -> inputs:string list -> bool

val run :
  ?fuel:int -> kind -> Minic.Tast.tprogram -> input:string -> Cdvm.Exec.result
(** One-shot [build] + [run_built]. *)

val detects : ?fuel:int -> kind -> Minic.Tast.tprogram -> inputs:string list -> bool
(** Did the sanitizer report anything on any of the inputs? *)

val first_report_built :
  ?fuel:int -> kind -> build -> inputs:string list -> string option
(** First report message over the inputs on an existing build, [None]
    when the sanitizer stays silent. *)

val first_report :
  ?fuel:int -> kind -> Minic.Tast.tprogram -> inputs:string list -> string option
