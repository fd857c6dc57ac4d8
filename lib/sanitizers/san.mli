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

val reports :
  ?fuel:int -> kind -> build -> inputs:string list -> string option list
(** [reports kind b ~inputs]: per input, in order, the sanitizer's report
    message ([None] when the run ended without one).  The inputs run as
    one VM batch ({!Cdvm.Exec.run_batch}) with [kind]'s hooks, each as
    {!Cdvm.Exec.run_linked} would run it alone.  [fuel] defaults to
    200k instructions. *)
