(* Abnormal termination conditions. *)

type t =
  | Null_deref
  | Segfault of int          (* unmapped absolute address *)
  | Div_by_zero
  | Invalid_free             (* free of a non-heap pointer or interior pointer *)
  | Abort_called
  | Stack_overflow
  | Output_limit             (* runaway stdout *)

type status =
  | Exit of int              (* normal termination, low 8 bits of main *)
  | Trap of t
  | Hang                     (* fuel exhausted: the timeout of Algorithm 1 *)
  | San_report of string     (* a sanitizer stopped the program *)

let to_string = function
  | Null_deref -> "null-dereference"
  | Segfault a -> Printf.sprintf "segfault(0x%x)" a
  | Div_by_zero -> "divide-by-zero"
  | Invalid_free -> "invalid-free"
  | Abort_called -> "abort"
  | Stack_overflow -> "stack-overflow"
  | Output_limit -> "output-limit"

let status_to_string = function
  | Exit c -> Printf.sprintf "exit(%d)" c
  | Trap t -> Printf.sprintf "trap(%s)" (to_string t)
  | Hang -> "hang"
  | San_report msg -> Printf.sprintf "sanitizer(%s)" msg

(* [exit_signatures.(c)] is ["exit(c)"]: every exit status the VM
   produces (it keeps the low 8 bits), rendered once instead of on every
   checksum.  A status read back from a disk-cache entry is not the
   VM's, so any other code is still rendered. *)
let exit_signatures = Array.init 256 (Printf.sprintf "exit(%d)")

(* What an external observer (the oracle) can distinguish: the faulting
   address of a segfault is internal diagnostic detail -- a real process
   just dies with SIGSEGV -- so it is excluded from the signature. *)
let signature = function
  | Exit c when c land 0xff = c -> exit_signatures.(c)
  | Exit c -> Printf.sprintf "exit(%d)" c
  | Trap (Segfault _) -> "trap(segfault)"
  | Trap t -> Printf.sprintf "trap(%s)" (to_string t)
  | Hang -> "hang"
  | San_report msg -> Printf.sprintf "sanitizer(%s)" msg

(* Statuses as CompDiff compares them: a hang is excluded from comparison
   at the oracle level (timeout escalation), everything else is part of
   the observable behaviour. *)
let equal_status a b = signature a = signature b
