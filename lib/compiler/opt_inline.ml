(* Function inlining.

   Calls to small non-recursive functions are replaced by the callee body:
   registers and labels are renumbered into the caller's space, callee
   frame slots are appended to the caller frame (which changes the stack
   layout -- a real source of divergence for out-of-bounds and
   uninitialized-slot programs), returns become moves plus a jump to a
   fresh continuation label. *)

open Ir

let size_of (f : ifunc) = Array.length f.code

let is_directly_recursive (f : ifunc) =
  Array.exists
    (function Icall (_, callee, _) -> callee = f.name | _ -> false)
    f.code

(* substitute registers via offset, labels via offset *)
let shift_instr ~dreg ~dlabel (ins : instr) : instr =
  let sr r = r + dreg in
  let op = function Reg r -> Reg (sr r) | o -> o in
  let ins = Opt_common.map_operands op ins in
  let relabel l = l + dlabel in
  let ins =
    match ins with
    | Ijmp l -> Ijmp (relabel l)
    | Ibr (c, t, e) -> Ibr (c, relabel t, relabel e)
    | Ilabel l -> Ilabel (relabel l)
    | other -> other
  in
  (* shift destination registers *)
  match ins with
  | Iconst (r, o) -> Iconst (sr r, o)
  | Imov (r, o) -> Imov (sr r, o)
  | Ibin (b, w, s, r, x, y) -> Ibin (b, w, s, sr r, x, y)
  | Ineg (w, s, r, x) -> Ineg (w, s, sr r, x)
  | Inot (w, r, x) -> Inot (w, sr r, x)
  | Ifbin (b, r, x, y) -> Ifbin (b, sr r, x, y)
  | Ifma (r, x, y, z) -> Ifma (sr r, x, y, z)
  | Ifneg (r, x) -> Ifneg (sr r, x)
  | Icmp (c, w, r, x, y) -> Icmp (c, w, sr r, x, y)
  | Ifcmp (c, r, x, y) -> Ifcmp (c, sr r, x, y)
  | Ipcmp (c, r, x, y) -> Ipcmp (c, sr r, x, y)
  | Ipadd (r, x, y) -> Ipadd (sr r, x, y)
  | Ipdiff (r, x, y) -> Ipdiff (sr r, x, y)
  | Icast (k, r, x) -> Icast (k, sr r, x)
  | Ilea (r, s) -> Ilea (sr r, s)
  | Iload (r, p) -> Iload (sr r, p)
  | Icall (d, f, args) -> Icall (Option.map sr d, f, args)
  | Ibuiltin (d, f, args) -> Ibuiltin (Option.map sr d, f, args)
  | Istore _ | Iprint _ | Ijmp _ | Ibr _ | Iret _ | Ilabel _ | Itrap _ -> ins

let shift_slots ~dslot (ins : instr) : instr =
  match ins with
  | Ilea (r, Sslot i) -> Ilea (r, Sslot (i + dslot))
  | other -> other

(* inline every eligible call site in [caller] once *)
let inline_into ~limit (unit_funcs : (string * ifunc) list) (caller : ifunc) :
    ifunc * bool =
  let changed = ref false in
  let nregs = ref caller.nregs in
  let nlabels =
    ref
      (Array.fold_left
         (fun acc ins ->
           match ins with
           | Ilabel l -> max acc (l + 1)
           | Ijmp l -> max acc (l + 1)
           | Ibr (_, t, e) -> max acc (max t e + 1)
           | _ -> acc)
         0 caller.code)
  in
  let slots = ref (Array.to_list caller.slots) in
  let nslots = ref (List.length !slots) in
  let out = ref [] in
  let emit i = out := i :: !out in
  Array.iter
    (fun ins ->
      match ins with
      | Icall (dest, fname, args) when fname <> caller.name -> (
        match List.assoc_opt fname unit_funcs with
        | Some callee
          when size_of callee <= limit && not (is_directly_recursive callee) ->
          changed := true;
          let dreg = !nregs in
          let dlabel = !nlabels in
          let dslot = !nslots in
          nregs := !nregs + callee.nregs + 1;
          nlabels := !nlabels + 1;
          let cont_label = dlabel in
          (* count callee labels to advance the label counter *)
          let callee_max_label =
            Array.fold_left
              (fun acc i ->
                match i with
                | Ilabel l -> max acc (l + 1)
                | Ijmp l -> max acc (l + 1)
                | Ibr (_, t, e) -> max acc (max t e + 1)
                | _ -> acc)
              0 callee.code
          in
          nlabels := !nlabels + callee_max_label;
          slots := !slots @ Array.to_list callee.slots;
          nslots := !nslots + Array.length callee.slots;
          (* parameters: callee regs 0..n-1 *)
          List.iteri (fun i a -> emit (Imov (dreg + i, a))) args;
          (* body, with returns turned into moves + jumps *)
          Array.iter
            (fun cins ->
              let cins = shift_slots ~dslot cins in
              let cins = shift_instr ~dreg ~dlabel:(dlabel + 1) cins in
              match cins with
              | Iret None -> emit (Ijmp cont_label)
              | Iret (Some v) ->
                (match dest with
                | Some d -> emit (Imov (d, v))
                | None -> ());
                emit (Ijmp cont_label)
              | other -> emit other)
            callee.code;
          emit (Ilabel cont_label)
        | _ -> emit ins)
      | _ -> emit ins)
    caller.code;
  ( {
      caller with
      nregs = !nregs;
      slots = Array.of_list !slots;
      code = Array.of_list (List.rev !out);
    },
    !changed )

let run ~limit (u : unit_) : unit_ =
  if limit <= 0 then u
  else begin
    let funcs =
      List.map
        (fun (name, f) ->
          (* a caller with no call inlined is returned as it is, so a
             memo keeps its key ({!Pipeline.optimize}) *)
          let f', changed = inline_into ~limit u.funcs f in
          (name, if changed then f' else f))
        u.funcs
    in
    { u with funcs }
  end
