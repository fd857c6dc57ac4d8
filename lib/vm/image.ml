(* The load/link stage: pre-resolve a compiled {!Ir.unit_} into an
   immutable executable image.

   The tree-walking reference interpreter pays per-dispatch costs that
   have nothing to do with the semantics under test: label lookups go
   through a hashtable on every jump, call targets through an
   association list, builtins through string comparison, and globals
   through a name table.  Linking resolves all of those once:

   - branch targets become instruction indices (an [Ljmp]/[Lbr] target
     is the pc of the [Llabel] itself, so fuel accounting and coverage
     are unchanged);
   - call targets become integer indices into a function table;
   - builtin names become an enum;
   - [Ilea] on a global becomes the object id it will resolve to (the
     global object table is a pure function of the runtime layout and
     the global list, and {!Mem.fold_globals} is the one placement both
     linking and {!Mem.create} use, so ids computed at link time are
     exactly the ids any fresh {!Mem.t} for this unit assigns; no
     memory is built to get them);
   - per-function metadata is precomputed: frame placement
     ({!Mem.layout_frame}) and the coverage block ids ([Tlabel] carries
     the hashed id, [l_entry_block] the function-entry id).

   Linking goes through a resolved [linstr] array, which exists only
   inside [link_func]: it is translated into the executed form, the
   threaded opstream [l_ops].  Both are parallel to the source [code]
   array -- same length, same pc for every instruction -- so the linked
   executor's fuel and coverage behaviour is index-for-index identical
   to the reference.

   Link-time resolution failures (unknown function, global or builtin,
   missing label) are *deferred*, not raised: the reference interpreter
   only faults when the bad instruction actually executes, and the
   linked executor must be byte-identical to it.  A missing label [l]
   is encoded as the negative target [-1 - l]; unknown names keep their
   own constructors and raise the reference's exact message when
   reached. *)

open Cdcompiler

type builtin =
  | Bgetchar
  | Binput_len
  | Bpeek
  | Bmalloc
  | Bfree
  | Bmemset
  | Bmemcpy
  | Bstrlen
  | Bexit
  | Babort
  | Bpow
  | Bsqrt
  | Bexp2
  | Bfloor
  | Bunknown of string  (* raises when executed, like the reference *)

let builtin_of_name = function
  | "getchar" -> Bgetchar
  | "input_len" -> Binput_len
  | "peek" -> Bpeek
  | "malloc" -> Bmalloc
  | "free" -> Bfree
  | "memset" -> Bmemset
  | "memcpy" -> Bmemcpy
  | "strlen" -> Bstrlen
  | "exit" -> Bexit
  | "abort" -> Babort
  | "pow" -> Bpow
  | "sqrt" -> Bsqrt
  | "exp2" -> Bexp2
  | "floor" -> Bfloor
  | n -> Bunknown n

(* Pre-decoded instructions.  [Iconst]/[Imov] collapse into [Lconst]
   (the reference treats them identically); [Icmp]'s width is dropped
   (the reference ignores it).  Branch targets < 0 encode a missing
   label [-1 - l]. *)
type linstr =
  | Lconst of Ir.reg * Ir.operand
  | Lbin of Ir.ibin * Ir.width * Ir.csem * Ir.reg * Ir.operand * Ir.operand
  | Lneg of Ir.width * Ir.csem * Ir.reg * Ir.operand
  | Lnot of Ir.width * Ir.reg * Ir.operand
  | Lfbin of Ir.fbin * Ir.reg * Ir.operand * Ir.operand
  | Lfma of Ir.reg * Ir.operand * Ir.operand * Ir.operand
  | Lfneg of Ir.reg * Ir.operand
  | Lcmp of Ir.cmp * Ir.reg * Ir.operand * Ir.operand
  | Lfcmp of Ir.cmp * Ir.reg * Ir.operand * Ir.operand
  | Lpcmp of Ir.cmp * Ir.reg * Ir.operand * Ir.operand
  | Lpadd of Ir.reg * Ir.operand * Ir.operand
  | Lpdiff of Ir.reg * Ir.operand * Ir.operand
  | Lcast of Ir.cast * Ir.reg * Ir.operand
  | Llea_global of Ir.reg * int            (* resolved object id *)
  | Llea_slot of Ir.reg * int
  | Lload of Ir.reg * Ir.operand
  | Lstore of Ir.operand * Ir.operand
  | Lcall of Ir.reg option * int * Ir.operand array
  | Lcall_unknown of string * Ir.operand array
  | Lbuiltin of Ir.reg option * builtin * Ir.operand array
  | Lprint of Ir.fmt_item list
  | Ljmp of int
  | Lbr of Ir.operand * int * int
  | Lret of Ir.operand option
  | Llabel of int                          (* precomputed coverage block id *)
  | Lfail of string                        (* link error, raised on execution *)
  | Ltrap

(* Threaded operands: immediates are boxed once at link time, so the
   executor's operand evaluation never allocates for constants.  [Tval]
   carries taint [false] by construction (immediates are never junk). *)
type topnd =
  | Treg of int
  | Tval of Value.t                        (* pre-boxed immediate *)

(* The threaded opstream: one [tinstr] per source instruction (same
   length, same pc -- the identity pc map), except that a fused
   superinstruction at pc [i] *also* performs the work of pc [i+1].
   Fusion is sound because branch targets are always [Tlabel] pcs: a
   non-label instruction at [i+1] is only ever reached by fallthrough
   from [i], so when [i] is fused the slot at [i+1] is unreachable (it
   still holds the normal translation, defensively).  Each fused op
   burns fuel twice with the reference's exact intermediate check, so
   [Fuel_out] fires at the identical instruction count. *)
type tinstr =
  | Tconst of int * topnd
  | Tbin of Ir.ibin * Ir.width * Ir.csem * int * topnd * topnd
  | Tneg of Ir.width * Ir.csem * int * topnd
  | Tnot of Ir.width * int * topnd
  | Tfbin of Ir.fbin * int * topnd * topnd
  | Tfma of int * topnd * topnd * topnd
  | Tfneg of int * topnd
  | Tcmp of Ir.cmp * int * topnd * topnd
  | Tfcmp of Ir.cmp * int * topnd * topnd
  | Tpcmp of Ir.cmp * int * topnd * topnd
  | Tpadd of int * topnd * topnd
  | Tpdiff of int * topnd * topnd
  | Tcast of Ir.cast * int * topnd
  | Tlea_global of int * int
  | Tlea_slot of int * int
  | Tload of int * topnd
  | Tstore of topnd * topnd
  | Tcall of int * int * topnd array       (* dest reg, or -1 for none *)
  | Tcall_unknown of string * topnd array
  | Tbuiltin of int * builtin * topnd array
  | Tprint of Ir.fmt_item list
  | Tjmp of int
  | Tbr of topnd * int * int
  | Tret of topnd option
  | Tlabel of int
  | Tfail of string
  | Ttrap
  (* fused superinstructions (2 source instructions each) *)
  | Tcmp_br of Ir.cmp * int * topnd * topnd * int * int
      (* cmp into r immediately consumed by a branch on r *)
  | Tconst2 of int * Value.t * int * Value.t
      (* two adjacent immediate constant loads *)
  | Tload_bin of int * topnd * Ir.ibin * Ir.width * Ir.csem * int * topnd
      (* load into r immediately consumed as the binop's left operand *)
  | Tload_slot of int * int
      (* lea slot[i] into a link-proven dead register immediately
         dereferenced by a load: (dest reg, slot index).  The pointer
         write is elided -- sound because the lea's register is read
         nowhere else in the function *)
  | Tstore_slot of int * topnd
      (* lea slot[i] + store through it: (slot index, stored operand) *)
  | Tload_global of int * int
      (* lea global + load: (dest reg, resolved object id) *)
  | Tstore_global of int * topnd
      (* lea global + store: (resolved object id, stored operand) *)

type lfunc = {
  l_name : string;
  l_nparams : int;
  l_nregs : int;                           (* as in the source ifunc *)
  l_slots : Ir.frame_slot array;
  l_frame : Mem.frame_layout;              (* precomputed placement *)
  l_ops : tinstr array;                    (* threaded form, source pcs *)
  l_entry_block : int;                     (* coverage id of function entry *)
}

type t = {
  unit_ : Ir.unit_;                        (* the source binary *)
  runtime : Policy.runtime;
  globals : Ir.iglobal list;
  funcs : lfunc array;
  entry : int;                             (* index of "main", or -1 *)
  global_ids : (string, int) Hashtbl.t;    (* name -> object id *)
}

(* first binding wins, like [List.assoc_opt] on [unit_.funcs] *)
let index_funcs (funcs : (string * Ir.ifunc) list) : (string, int) Hashtbl.t =
  let h = Hashtbl.create 16 in
  List.iteri
    (fun i (name, _) -> if not (Hashtbl.mem h name) then Hashtbl.add h name i)
    funcs;
  h

(* --- threaded translation --- *)

let topnd_of (o : Ir.operand) : topnd =
  match o with
  | Ir.Reg r -> Treg r
  | Ir.ImmI v -> Tval (Value.Vint v)
  | Ir.ImmF f -> Tval (Value.Vfloat f)
  | Ir.Nullptr -> Tval (Value.Vptr Value.null)

(* an immediate whose box can be folded into the instruction itself *)
let imm_value (o : Ir.operand) : Value.t option =
  match o with
  | Ir.Reg _ -> None
  | Ir.ImmI v -> Some (Value.Vint v)
  | Ir.ImmF f -> Some (Value.Vfloat f)
  | Ir.Nullptr -> Some (Value.Vptr Value.null)

let dest_of = function Some r -> r | None -> -1

(* single-instruction translation; fusion happens in a second scan *)
let tinstr_of (ins : linstr) : tinstr =
  match ins with
  | Lconst (r, o) -> Tconst (r, topnd_of o)
  | Lbin (op, w, sem, r, a, b) -> Tbin (op, w, sem, r, topnd_of a, topnd_of b)
  | Lneg (w, sem, r, a) -> Tneg (w, sem, r, topnd_of a)
  | Lnot (w, r, a) -> Tnot (w, r, topnd_of a)
  | Lfbin (op, r, a, b) -> Tfbin (op, r, topnd_of a, topnd_of b)
  | Lfma (r, a, b, c) -> Tfma (r, topnd_of a, topnd_of b, topnd_of c)
  | Lfneg (r, a) -> Tfneg (r, topnd_of a)
  | Lcmp (c, r, a, b) -> Tcmp (c, r, topnd_of a, topnd_of b)
  | Lfcmp (c, r, a, b) -> Tfcmp (c, r, topnd_of a, topnd_of b)
  | Lpcmp (c, r, a, b) -> Tpcmp (c, r, topnd_of a, topnd_of b)
  | Lpadd (r, p, o) -> Tpadd (r, topnd_of p, topnd_of o)
  | Lpdiff (r, a, b) -> Tpdiff (r, topnd_of a, topnd_of b)
  | Lcast (k, r, a) -> Tcast (k, r, topnd_of a)
  | Llea_global (r, id) -> Tlea_global (r, id)
  | Llea_slot (r, i) -> Tlea_slot (r, i)
  | Lload (r, p) -> Tload (r, topnd_of p)
  | Lstore (p, x) -> Tstore (topnd_of p, topnd_of x)
  | Lcall (dest, fi, args) -> Tcall (dest_of dest, fi, Array.map topnd_of args)
  | Lcall_unknown (fname, args) -> Tcall_unknown (fname, Array.map topnd_of args)
  | Lbuiltin (dest, b, args) -> Tbuiltin (dest_of dest, b, Array.map topnd_of args)
  | Lprint items -> Tprint items
  | Ljmp t -> Tjmp t
  | Lbr (c, lt, lf) -> Tbr (topnd_of c, lt, lf)
  | Lret o -> Tret (Option.map topnd_of o)
  | Llabel blk -> Tlabel blk
  | Lfail msg -> Tfail msg
  | Ltrap -> Ttrap

(* Per-register read counts over a whole function, for dead-register
   fusion: a lea whose register is read exactly once (by the adjacent
   load/store) leaves no other way to observe the pointer write, so the
   fused form may elide it entirely. *)
let reg_reads ~(nregs : int) (code : linstr array) : int array =
  let reads = Array.make (max 1 nregs) 0 in
  let op (o : Ir.operand) =
    match o with
    | Ir.Reg r -> if r >= 0 && r < Array.length reads then reads.(r) <- reads.(r) + 1
    | Ir.ImmI _ | Ir.ImmF _ | Ir.Nullptr -> ()
  in
  let item (it : Ir.fmt_item) =
    match it with
    | Ir.Flit _ -> ()
    | Ir.Fint o | Ir.Flong o | Ir.Fuint o | Ir.Fhex o | Ir.Fchar o
    | Ir.Fstr o | Ir.Ffloat o | Ir.Fptr o -> op o
  in
  Array.iter
    (fun ins ->
      match ins with
      | Lconst (_, a) | Lneg (_, _, _, a) | Lnot (_, _, a) | Lfneg (_, a)
      | Lcast (_, _, a) | Lload (_, a) | Lbr (a, _, _) | Lret (Some a) ->
        op a
      | Lbin (_, _, _, _, a, b) | Lfbin (_, _, a, b) | Lcmp (_, _, a, b)
      | Lfcmp (_, _, a, b) | Lpcmp (_, _, a, b) | Lpadd (_, a, b)
      | Lpdiff (_, a, b) | Lstore (a, b) ->
        op a; op b
      | Lfma (_, a, b, c) -> op a; op b; op c
      | Lcall (_, _, args) | Lcall_unknown (_, args) | Lbuiltin (_, _, args) ->
        Array.iter op args
      | Lprint items -> List.iter item items
      | Llea_global _ | Llea_slot _ | Ljmp _ | Lret None | Llabel _
      | Lfail _ | Ltrap -> ())
    code;
  reads

(* Fuse common adjacent pairs.  Safe because only [Llabel] pcs are jump
   targets (see [target]): a fused second half can never be entered
   directly.  Each fused op replicates the reference's per-instruction
   fuel ticks, so verdicts (incl. mid-pair [Fuel_out]) are unchanged. *)
let translate ~(nregs : int) (code : linstr array) : tinstr array =
  let n = Array.length code in
  let ops = Array.map tinstr_of code in
  let reads = reg_reads ~nregs code in
  let dead r = r >= 0 && r < Array.length reads && reads.(r) = 1 in
  let i = ref 0 in
  while !i < n - 1 do
    (match (code.(!i), code.(!i + 1)) with
    | Lcmp (c, r, a, b), Lbr (Ir.Reg r', lt, lf) when r = r' ->
        ops.(!i) <- Tcmp_br (c, r, topnd_of a, topnd_of b, lt, lf);
        incr i
    | Lconst (r1, o1), Lconst (r2, o2) -> (
        match (imm_value o1, imm_value o2) with
        | Some v1, Some v2 ->
            ops.(!i) <- Tconst2 (r1, v1, r2, v2);
            incr i
        | _ -> ())
    | Lload (r1, p), Lbin (op, w, sem, r2, Ir.Reg a, b) when a = r1 ->
        ops.(!i) <- Tload_bin (r1, topnd_of p, op, w, sem, r2, topnd_of b);
        incr i
    (* slot/global address formation feeding a single adjacent access:
       the pointer register is read exactly once, so its write (value,
       taint, written flag alike) is unobservable and can be elided *)
    | Llea_slot (r, s), Lload (r2, Ir.Reg pr) when pr = r && dead r ->
        ops.(!i) <- Tload_slot (r2, s);
        incr i
    | Llea_slot (r, s), Lstore (Ir.Reg pr, x) when pr = r && dead r ->
        ops.(!i) <- Tstore_slot (s, topnd_of x);
        incr i
    | Llea_global (r, id), Lload (r2, Ir.Reg pr) when pr = r && dead r ->
        ops.(!i) <- Tload_global (r2, id);
        incr i
    | Llea_global (r, id), Lstore (Ir.Reg pr, x) when pr = r && dead r ->
        ops.(!i) <- Tstore_global (id, topnd_of x);
        incr i
    | _ -> ());
    incr i
  done;
  ops

let link_func ~(fidx : (string, int) Hashtbl.t)
    ~(gids : (string, int) Hashtbl.t) ~(layout : Policy.layout)
    ~(intern_builtin : string -> builtin) (fname : string) (f : Ir.ifunc) :
    lfunc =
  let label_pc = Hashtbl.create 16 in
  (* [Hashtbl.replace]: the last occurrence of a duplicate label wins,
     exactly as the reference interpreter's label map fills *)
  Array.iteri
    (fun i ins ->
      match ins with Ir.Ilabel l -> Hashtbl.replace label_pc l i | _ -> ())
    f.Ir.code;
  let target l =
    match Hashtbl.find_opt label_pc l with Some i -> i | None -> -1 - l
  in
  let link_instr (ins : Ir.instr) : linstr =
    match ins with
    | Ir.Iconst (r, o) | Ir.Imov (r, o) -> Lconst (r, o)
    | Ir.Ibin (op, w, sem, r, a, b) -> Lbin (op, w, sem, r, a, b)
    | Ir.Ineg (w, sem, r, a) -> Lneg (w, sem, r, a)
    | Ir.Inot (w, r, a) -> Lnot (w, r, a)
    | Ir.Ifbin (op, r, a, b) -> Lfbin (op, r, a, b)
    | Ir.Ifma (r, a, b, c) -> Lfma (r, a, b, c)
    | Ir.Ifneg (r, a) -> Lfneg (r, a)
    | Ir.Icmp (c, _w, r, a, b) -> Lcmp (c, r, a, b)
    | Ir.Ifcmp (c, r, a, b) -> Lfcmp (c, r, a, b)
    | Ir.Ipcmp (c, r, a, b) -> Lpcmp (c, r, a, b)
    | Ir.Ipadd (r, p, o) -> Lpadd (r, p, o)
    | Ir.Ipdiff (r, a, b) -> Lpdiff (r, a, b)
    | Ir.Icast (k, r, a) -> Lcast (k, r, a)
    | Ir.Ilea (r, Ir.Sglobal g) -> (
        match Hashtbl.find_opt gids g with
        | Some id -> Llea_global (r, id)
        | None -> Lfail ("Exec: unknown global " ^ g))
    | Ir.Ilea (r, Ir.Sslot i) -> Llea_slot (r, i)
    | Ir.Iload (r, p) -> Lload (r, p)
    | Ir.Istore (p, x) -> Lstore (p, x)
    | Ir.Icall (dest, callee, args) -> (
        let args = Array.of_list args in
        match Hashtbl.find_opt fidx callee with
        | Some i -> Lcall (dest, i, args)
        | None -> Lcall_unknown (callee, args))
    | Ir.Ibuiltin (dest, bname, args) ->
        Lbuiltin (dest, intern_builtin bname, Array.of_list args)
    | Ir.Iprint items -> Lprint items
    | Ir.Ijmp l -> Ljmp (target l)
    | Ir.Ibr (c, lt, lf) -> Lbr (c, target lt, target lf)
    | Ir.Iret o -> Lret o
    | Ir.Ilabel l -> Llabel (Coverage.block_id ~fname ~label:l)
    | Ir.Itrap _ -> Ltrap
  in
  {
    l_name = fname;
    l_nparams = f.Ir.nparams;
    l_nregs = f.Ir.nregs;
    l_slots = f.Ir.slots;
    l_frame = Mem.layout_frame layout f.Ir.slots;
    l_ops = translate ~nregs:f.Ir.nregs (Array.map link_instr f.Ir.code);
    l_entry_block = Coverage.block_id ~fname ~label:(-1);
  }

(* [?memo] carries the keys of [u]'s functions and changes the cost,
   never the result.  A function's linked form reads, besides the
   function and its name, only the unit's layout, its function-index
   table and its global ids: those, as the exact bytes of the layout,
   the function names in order and the global ids, are the unit's link
   context.  Memoized functions are shared between images. *)
let link ?(memo : lfunc Fmemo.keyed option) (u : Ir.unit_) : t =
  let runtime = u.Ir.runtime in
  let fidx = index_funcs u.Ir.funcs in
  let layout = runtime.Policy.layout in
  (* the ids every execution memory for this unit assigns, from the
     placement {!Mem.create} uses *)
  let gids = Mem.global_ids_of layout u.Ir.globals in
  (* builtin names resolve once per unit, not once per call-site; the
     memo also shares one [Bunknown] block per unresolved name *)
  let builtins : (string, builtin) Hashtbl.t = Hashtbl.create 8 in
  let intern_builtin name =
    match Hashtbl.find_opt builtins name with
    | Some b -> b
    | None ->
        let b = builtin_of_name name in
        Hashtbl.add builtins name b;
        b
  in
  let link1 (name, f) = link_func ~fidx ~gids ~layout ~intern_builtin name f in
  let funcs =
    match memo with
    | None -> Array.of_list (List.map link1 u.Ir.funcs)
    | Some { Fmemo.keys; memo } ->
        let ctx =
          Fmemo.context
            ( layout,
              List.map fst u.Ir.funcs,
              List.sort compare (List.of_seq (Hashtbl.to_seq gids)) )
        in
        Array.of_list
          (List.map2
             (fun ((name, _) as nf) k ->
               memo.Fmemo.find_or_compute
                 (Fmemo.derive ~stage:("link " ^ name) ~ctx k)
                 (fun () -> link1 nf))
             u.Ir.funcs keys)
  in
  let entry =
    match Hashtbl.find_opt fidx "main" with Some i -> i | None -> -1
  in
  { unit_ = u; runtime; globals = u.Ir.globals; funcs; entry; global_ids = gids }
