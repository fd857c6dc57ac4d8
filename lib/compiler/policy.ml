(* Implementation policies.

   A "compiler implementation" in the paper's sense (gcc-O0, clang-O2, ...)
   is, for us, a {!profile}: a pass pipeline plus a set of choices about
   how undefined or unspecified constructs are resolved. The choices split
   into compile-time policies (applied during lowering/optimization) and
   run-time policies (carried into the compiled unit and applied by the
   VM: memory layout, uninitialized values, pointer ordering).

   Every policy is a point where the C standard gives implementations
   freedom; two profiles differing in any of them remain *legal* and agree
   on UB-free programs, which is exactly the property CompDiff needs. *)

(* --- run-time policies --- *)

(* What an uninitialized register or fresh heap block reads as. Frame
   slots are more faithful: the stack region is never cleared, so an
   uninitialized slot reads whatever the previous frame left there. *)
type uninit_policy =
  | Uzero                 (* always 0 (e.g. a zeroing allocator) *)
  | Upattern of int       (* deterministic per-address junk from this seed *)

type layout = {
  globals_base : int;       (* first address of the globals region *)
  global_gap : int;         (* padding cells between globals *)
  globals_reversed : bool;  (* place globals in reverse declaration order *)
  stack_base : int;         (* stack region start *)
  stack_size : int;         (* stack region size in cells *)
  frame_align : int;        (* frames padded to a multiple of this *)
  slot_gap : int;           (* padding cells between frame slots *)
  slots_reversed : bool;    (* frame slots in reverse source order *)
  heap_base : int;
  heap_gap : int;           (* padding cells between heap blocks *)
  heap_reuse : bool;        (* free-list reuse (LIFO) vs always-fresh *)
}

(* How relational pointer comparison across objects resolves. Within one
   object every implementation agrees (offset order). *)
type ptrcmp_policy =
  | Pabs                  (* by absolute address under this unit's layout *)
  | Pobjseq               (* by allocation sequence number, then offset *)

type runtime = {
  layout : layout;
  uninit_reg : uninit_policy;   (* promoted scalars (registers) *)
  uninit_heap : uninit_policy;  (* fresh heap blocks *)
  stack_seed : int;             (* initial junk pattern of the stack region *)
  ptrcmp : ptrcmp_policy;
  memcpy_backward : bool;       (* libc memcpy direction: unspecified for
                                   overlapping regions (CWE-475 territory) *)
}

(* --- compile-time policies --- *)

type arg_order = Left_to_right | Right_to_left

type line_policy =
  | Ltoken        (* __LINE__ = line of the token itself *)
  | Lstmt         (* __LINE__ = line where the statement began *)

type opt_flags = {
  constfold : bool;
  copyprop : bool;
  cse : bool;
  ub_branch_fold : bool;  (* fold overflow/null-guard patterns assuming no UB *)
  null_check_fold : bool; (* delete null tests dominated by a dereference *)
  null_deref_trap : bool; (* turn provably-null dereferences into traps
                             (LLVM-style ud2), changing the crash kind *)
  dce : bool;
  inline_limit : int;     (* max callee size in instructions; 0 = no inlining *)
  strength : bool;        (* mul-by-pow2 -> shift (semantics preserving) *)
  promote_mul : bool;     (* widen int*int feeding a long context (clang-O1) *)
  fp_contract : bool;     (* fuse a*b+c into fma *)
  pow_to_exp2 : bool;     (* pow(2.0, x) -> exp2(x) libcall *)
  promote_scalars : bool; (* keep address-free scalars in registers *)
  unsafe_copyprop : bool; (* KNOWN-BAD alias handling; only in the buggy
                             profile used to reproduce RQ2 compiler bugs *)
}

type profile = {
  pname : string;          (* e.g. "gccx-O2" *)
  family : string;         (* "gccx" | "clangx" *)
  level : string;          (* "O0" .. "O3", "Os" *)
  arg_order : arg_order;
  line : line_policy;
  flags : opt_flags;
  runtime : runtime;
}

(* The part of a profile that lowering reads.  Profiles with equal
   lowerings lower every program to the same IR, so a caller compiling
   one program under several profiles lowers once per distinct value;
   the ten implementations have four. *)
type lowering = {
  lw_line : line_policy;
  lw_arg_order : arg_order;
  lw_promote_scalars : bool;
}

let lowering_of (p : profile) : lowering =
  {
    lw_line = p.line;
    lw_arg_order = p.arg_order;
    lw_promote_scalars = p.flags.promote_scalars;
  }

let no_opt =
  {
    constfold = false;
    copyprop = false;
    cse = false;
    ub_branch_fold = false;
    null_check_fold = false;
    null_deref_trap = false;
    dce = false;
    inline_limit = 0;
    strength = false;
    promote_mul = false;
    fp_contract = false;
    pow_to_exp2 = false;
    promote_scalars = false;
    unsafe_copyprop = false;
  }

(* --- canonical serializations (for structural binary dedup) --- *)

(* These strings are injective per policy component: two components
   serialize equally iff they are structurally equal, so they can be
   used as equivalence-class keys. *)

let uninit_signature = function
  | Uzero -> "z"
  | Upattern seed -> "p" ^ string_of_int seed

let layout_signature (l : layout) =
  Printf.sprintf "gb%d,gg%d,gr%b,sb%d,ss%d,fa%d,sg%d,sr%b,hb%d,hg%d,hr%b"
    l.globals_base l.global_gap l.globals_reversed l.stack_base l.stack_size
    l.frame_align l.slot_gap l.slots_reversed l.heap_base l.heap_gap
    l.heap_reuse

let memory_runtime_signature (r : runtime) =
  Printf.sprintf "L{%s},uh%s,sk%d,pc%s,mb%b"
    (layout_signature r.layout)
    (uninit_signature r.uninit_heap)
    r.stack_seed
    (match r.ptrcmp with Pabs -> "abs" | Pobjseq -> "seq")
    r.memcpy_backward

let runtime_signature (r : runtime) =
  Printf.sprintf "%s,ur%s" (memory_runtime_signature r)
    (uninit_signature r.uninit_reg)

(* Deterministic junk value for an uninitialized location. *)
let uninit_value policy ~addr =
  match policy with
  | Uzero -> 0L
  | Upattern seed ->
    let h = Cdutil.Rng.mix seed addr in
    (* small-ish, clearly non-zero, and of varying sign so that branches
       on uninitialized values can go either way *)
    let v = (h land 0xFFFF) + 1 in
    Int64.of_int (if h land 0x10000 <> 0 then -v else v)
