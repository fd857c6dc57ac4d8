(* What a run lets the outside world see.

   Every consumer of the VM used to pick its own observation mechanism:
   the localizer passed an [on_print] closure, the sanitizers a
   {!Hooks.t}, the oracle nothing at all.  An {!Observer.t} unifies
   them into one field of [Exec.config] with three *levels*:

   - [Silent]  -- nothing is observed beyond (stdout, status, fuel).
     This is the oracle's path; the threaded executor keeps its
     hook-free fast path whenever the sanitizer hooks are [Hooks.none],
     so silence costs nothing by construction.
   - [Prints]  -- one callback per executed print statement, with the
     enclosing function name and the rendered text.  This is the event
     level optimizations preserve (DESIGN.md section 15), and the one
     classic localization compares.
   - [Steps]   -- a full per-instruction feed: pc before each
     instruction, every register write, every memory write (including
     those inside builtins like memset/memcpy), call/return boundaries
     and print events.  The tree-walking reference interpreter feeds
     it, so [fi]/[pc] are the source [Ir] function index and pc (the
     image's function table and opstream use the same numbering).
     Recording at this level is how the trace store ([Cdtrace])
     captures a run for time-travel replay.

   Sanitizer hooks are orthogonal to the level -- an instrumented binary
   can run silently (the fuzzer) or while being traced -- so they travel
   alongside it rather than as a fourth level. *)

type step_sink = {
  on_step : fi:int -> pc:int -> depth:int -> unit;
      (** before each instruction dispatch, after its fuel tick; [fi] is
          the source [Ir] function index (position in [unit_.funcs],
          first binding of a duplicated name), [pc] the source [Ir]
          pc *)
  on_reg_write : reg:int -> Value.t -> unit;
      (** after a register write of the current frame *)
  on_mem_write : addr:int -> Value.t -> unit;
      (** after a store to absolute address [addr], builtins included *)
  on_call : fi:int -> unit;
      (** frame pushed; subsequent register writes hit the callee *)
  on_ret : unit -> unit;
      (** frame popped; subsequent register writes hit the caller *)
  on_print_ev : fn:string -> string -> unit;
      (** a print statement executed, same payload as the [Prints] level *)
}

type level =
  | Silent
  | Prints of (fn:string -> string -> unit)
  | Steps of step_sink

type t = {
  hooks : Hooks.t;  (** sanitizer instrumentation; [Hooks.none] = plain *)
  level : level;
}

let silent = { hooks = Hooks.none; level = Silent }
let prints cb = { hooks = Hooks.none; level = Prints cb }
let steps sink = { hooks = Hooks.none; level = Steps sink }

(* a sanitized build observed at the [Silent] level: today's fuzzer *)
let sanitize hooks = { hooks; level = Silent }

(* the per-print callback implied by the level, if any; executors
   resolve this once per run, not once per print *)
let print_cb (t : t) : (fn:string -> string -> unit) option =
  match t.level with
  | Silent -> None
  | Prints cb -> Some cb
  | Steps s -> Some (fun ~fn text -> s.on_print_ev ~fn text)
