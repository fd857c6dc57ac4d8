(* Driver for sanitizer-instrumented runs.

   A "sanitizer build" is the unoptimizing build (the fuzzer's compiler,
   as in CompDiff-AFL++ where B_fuzz carries the sanitizer checks) plus
   the corresponding VM hooks. *)

open Cdcompiler

type kind = Asan | Ubsan | Msan

let name = function Asan -> "ASan" | Ubsan -> "UBSan" | Msan -> "MSan"

let hooks = function
  | Asan -> Asan.hooks
  | Ubsan -> Ubsan.hooks
  | Msan -> Msan.hooks

let all = [ Asan; Ubsan; Msan ]

(* the build sanitizers instrument: unoptimized, every local observable *)
let build_profile = Profiles.gccx "O0"

(* A reusable sanitizer build: the instrumented binary compiled and
   linked once.  The hook set is a per-run config, so one build serves
   all three sanitizers.  Runs take the calling domain's arena, so a
   build holds no scratch state and may be shared freely. *)
type build = Cdvm.Image.t

(* With a session, the compile and the link are served by its caches
   (the instrumented binary is the plain unoptimized one; hooks are
   per-run config).  Sanitized executions must never go through the
   session's observation store — hooks make a run more than a function
   of (image, input, fuel) — so they run the image directly. *)
let build ?session (tp : Minic.Tast.tprogram) : build =
  match session with
  | Some s ->
      Engine.Session.image (Engine.Session.link s (Engine.Session.compile s build_profile tp))
  | None -> Cdvm.Image.link (Pipeline.compile build_profile tp)

let run_built ?(fuel = 200_000) (kind : kind) (b : build) ~(input : string) :
    Cdvm.Exec.result =
  Cdvm.Exec.run_linked
    ~config:
      {
        Cdvm.Exec.default_config with
        Cdvm.Exec.input;
        fuel;
        observer = Cdvm.Observer.sanitize (hooks kind);
      }
    b

let run ?fuel (kind : kind) (tp : Minic.Tast.tprogram) ~(input : string) :
    Cdvm.Exec.result =
  run_built ?fuel kind (build tp) ~input

(* Did this sanitizer report anything on any of the inputs?  The whole
   set runs as one VM batch on the domain's arena (hooks are per-run
   config, so batching never touches an observation store). *)
let detects_built ?(fuel = 200_000) (kind : kind) (b : build)
    ~(inputs : string list) : bool =
  let config =
    {
      Cdvm.Exec.default_config with
      Cdvm.Exec.fuel;
      observer = Cdvm.Observer.sanitize (hooks kind);
    }
  in
  let results =
    Cdvm.Exec.run_batch ~config b ~inputs:(Array.of_list inputs)
  in
  Array.exists
    (fun r ->
      match r.Cdvm.Exec.status with
      | Cdvm.Trap.San_report _ -> true
      | Cdvm.Trap.Exit _ | Cdvm.Trap.Trap _ | Cdvm.Trap.Hang -> false)
    results

let detects ?fuel (kind : kind) (tp : Minic.Tast.tprogram) ~(inputs : string list) :
    bool =
  detects_built ?fuel kind (build tp) ~inputs

(* First report message, for diagnostics. *)
let first_report_built ?fuel (kind : kind) (b : build)
    ~(inputs : string list) : string option =
  List.find_map
    (fun input ->
      match (run_built ?fuel kind b ~input).Cdvm.Exec.status with
      | Cdvm.Trap.San_report msg -> Some msg
      | Cdvm.Trap.Exit _ | Cdvm.Trap.Trap _ | Cdvm.Trap.Hang -> None)
    inputs

let first_report ?fuel (kind : kind) (tp : Minic.Tast.tprogram)
    ~(inputs : string list) : string option =
  first_report_built ?fuel kind (build tp) ~inputs
