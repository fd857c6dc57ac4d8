(** Canonical signatures of compiled binaries.

    [signature u = signature v] implies [u] and [v] behave identically
    (same output, same trap status, same fuel consumption) on every
    input when executed by the plain VM without hooks — the oracle uses
    this to execute one representative per equivalence class. *)

val signature : ?memo:bool Cdcompiler.Fmemo.keyed -> Cdcompiler.Ir.unit_ -> string
(** Canonical serialization of the unit's code, globals and the
    behaviorally relevant subset of its runtime policy, as one [Marshal]
    string.  Compare with string equality (not a hash) for soundness,
    and only within one process: the bytes follow the running OCaml's
    [Marshal] format.  [?memo] (the keys of the unit's functions and a
    store) serves the two per-function facts the signature reads, as
    {!may_read_uninit_reg} and {!touches_memory} decide them, for
    functions analysed before; it changes the cost, never the bytes. *)

val may_read_uninit_reg : Cdcompiler.Ir.unit_ -> bool
(** Whether some register of some function may be read before being
    written (must-init dataflow; conservative: true on uncertainty).
    When false, the [uninit_reg] policy cannot affect execution and is
    excluded from the signature. *)

val touches_memory : Cdcompiler.Ir.unit_ -> bool
(** Whether the unit can interact with the VM address space (memory
    instructions, memory builtins, pointer prints, globals, or frame
    slots — slots alone can overflow the stack region, which depends on
    the layout).  When false, the layout and memory policies are
    excluded from the signature. *)
