(* Canonical signatures of compiled binaries, for oracle dedup.

   Two binaries with equal signatures behave identically on every input
   when executed by the plain VM (no hooks), so the oracle can execute
   one representative per signature class and share the observation.

   The signature covers:
   - the name, arity, register count, slot sizes and full code of every
     function, and the globals, as one exact [Marshal] serialization;
   - only the *behaviorally relevant* part of the runtime policy:
     [uninit_reg] matters only if some register may be read before it is
     written (decided by a must-init dataflow analysis), and the memory
     policies (layout, [uninit_heap], [stack_seed], [ptrcmp],
     [memcpy_backward]) matter only if the unit can touch the address
     space at all.  Note that a function with frame slots depends on the
     layout even if it never loads or stores: frame placement alone can
     raise [Stack_overflow] ([Mem.push_frame]).

   [impl_name] and [code_lines] never affect execution and are
   excluded. *)

open Cdcompiler

(* --- may some register be read before it is written? ---

   Forward must-init dataflow: a register is initialized at [pc] if it
   is written on *every* path from entry to [pc] (parameters start
   initialized).  Meet is set intersection; states only shrink, and the
   flag below is re-evaluated on every re-visit, so the final visit of
   each pc checks uses against its fixpoint state. *)

let may_read_uninit_func (f : Ir.ifunc) : bool =
  let n = Array.length f.Ir.code in
  if n = 0 then false
  else begin
    let nregs = max f.Ir.nregs (max f.Ir.nparams 1) in
    let label_pc = Hashtbl.create 16 in
    Array.iteri
      (fun i ins ->
        match ins with Ir.Ilabel l -> Hashtbl.replace label_pc l i | _ -> ())
      f.Ir.code;
    let inits : Bytes.t option array = Array.make n None in
    let queue = Queue.create () in
    let suspicious = ref false in
    let join pc (s : Bytes.t) =
      match inits.(pc) with
      | None ->
          inits.(pc) <- Some (Bytes.copy s);
          Queue.add pc queue
      | Some old ->
          let changed = ref false in
          for r = 0 to nregs - 1 do
            if Bytes.get old r <> '\000' && Bytes.get s r = '\000' then begin
              Bytes.set old r '\000';
              changed := true
            end
          done;
          if !changed then Queue.add pc queue
    in
    let jump_target l =
      match Hashtbl.find_opt label_pc l with
      | Some pc -> Some pc
      | None ->
          (* malformed code: give up soundly *)
          suspicious := true;
          None
    in
    let entry = Bytes.make nregs '\000' in
    for r = 0 to min f.Ir.nparams nregs - 1 do
      Bytes.set entry r '\001'
    done;
    join 0 entry;
    while (not !suspicious) && not (Queue.is_empty queue) do
      let pc = Queue.pop queue in
      match inits.(pc) with
      | None -> ()
      | Some s ->
          let ins = f.Ir.code.(pc) in
          List.iter
            (fun r ->
              if r >= nregs || Bytes.get s r = '\000' then suspicious := true)
            (Ir.uses ins);
          let out = Bytes.copy s in
          (match Ir.def ins with
          | Some r when r < nregs -> Bytes.set out r '\001'
          | _ -> ());
          (match ins with
          | Ir.Ijmp l -> Option.iter (fun pc' -> join pc' out) (jump_target l)
          | Ir.Ibr (_, lt, lf) ->
              Option.iter (fun pc' -> join pc' out) (jump_target lt);
              Option.iter (fun pc' -> join pc' out) (jump_target lf)
          | Ir.Iret _ | Ir.Itrap _ -> ()
          | _ -> if pc + 1 < n then join (pc + 1) out)
    done;
    !suspicious
  end

let may_read_uninit_reg (u : Ir.unit_) : bool =
  List.exists (fun (_, f) -> may_read_uninit_func f) u.Ir.funcs

(* --- can the unit touch the address space? --- *)

let builtin_touches_memory = function
  | "malloc" | "free" | "memset" | "memcpy" | "strlen" -> true
  | _ -> false

let instr_touches_memory = function
  | Ir.Ilea _ | Ir.Iload _ | Ir.Istore _ | Ir.Ipadd _ | Ir.Ipdiff _
  | Ir.Ipcmp _ ->
      true
  | Ir.Icast ((Ir.P2I _ | Ir.I2P), _, _) -> true
  | Ir.Ibuiltin (_, name, _) -> builtin_touches_memory name
  | Ir.Iprint items ->
      List.exists
        (function Ir.Fptr _ | Ir.Fstr _ -> true | _ -> false)
        items
  | _ -> false

let func_touches_memory (f : Ir.ifunc) : bool =
  Array.length f.Ir.slots > 0 || Array.exists instr_touches_memory f.Ir.code

let touches_memory (u : Ir.unit_) : bool =
  u.Ir.globals <> [] || List.exists (fun (_, f) -> func_touches_memory f) u.Ir.funcs

(* --- serialization --- *)

(* The signature is ONE [Marshal] serialization, without sharing, of
   the triple (projection, memory-policy string option, uninit-register
   string option), where each option is [Some] exactly when that part of
   the runtime policy can matter (see above).  Structurally equal
   triples give equal bytes and, since [Marshal] is injective on values
   of one type, unequal triples give unequal bytes: a [None] and a
   [Some] differ in their block, and the policy strings are length-
   prefixed, so no part can run into the next.  Float immediates go out
   as their IEEE bits and every constructor argument (cast widths, csem
   markers) is kept, so no field of the code can be conflated with
   another.  One allocation per signature: a [Buffer] that the
   serialization is copied into, and the copy out of it, would each be
   a 2 KiB or larger block that skips the minor heap.  The bytes depend
   on the [Marshal] format of the running OCaml; signatures are compared
   only within one process. *)
type projection = {
  funcs : (string * int * int * int array * Ir.instr array) list;
      (* name, nparams, nregs, slot sizes, code *)
  globals : Ir.iglobal list;
}

let projection (u : Ir.unit_) : projection =
  {
    funcs =
      List.map
        (fun (name, (f : Ir.ifunc)) ->
          ( name,
            f.Ir.nparams,
            f.Ir.nregs,
            Array.map (fun (s : Ir.frame_slot) -> s.Ir.slot_size) f.Ir.slots,
            f.Ir.code ))
        u.Ir.funcs;
    globals = u.Ir.globals;
  }

(* Whether [fact] holds of some function of [u], each function's fact
   served by [?memo] under [stage] when it has one.  It stops at the
   first function that has the fact, as the signature needs no more. *)
let exists_func ?(memo : bool Fmemo.keyed option) ~stage (fact : Ir.ifunc -> bool)
    (u : Ir.unit_) : bool =
  match memo with
  | None -> List.exists (fun (_, f) -> fact f) u.Ir.funcs
  | Some { Fmemo.keys; memo } ->
      List.exists2
        (fun (_, f) k ->
          memo.Fmemo.find_or_compute
            (Fmemo.derive ~stage ~ctx:Fmemo.no_context k)
            (fun () -> fact f))
        u.Ir.funcs keys

let signature ?(memo : bool Fmemo.keyed option) (u : Ir.unit_) : string =
  let mem =
    if
      u.Ir.globals <> []
      || exists_func ?memo ~stage:"touches memory" func_touches_memory u
    then Some (Policy.memory_runtime_signature u.Ir.runtime)
    else None
  in
  let ureg =
    if exists_func ?memo ~stage:"may read uninit" may_read_uninit_func u then
      Some (Policy.uninit_signature u.Ir.runtime.Policy.uninit_reg)
    else None
  in
  Marshal.to_string (projection u, mem, ureg) [ Marshal.No_sharing ]
