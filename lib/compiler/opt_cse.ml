(* Block-local common-subexpression elimination by value numbering.

   Pure computations with identical opcodes and operands reuse the earlier
   result. Loads participate with a memory epoch: any store, call or
   builtin bumps the epoch, invalidating load equivalences.

   When [unsafe] is set (only in the deliberately buggy profile used by
   the RQ2 experiment), stores do NOT bump the epoch -- a classic alias
   analysis miscompilation: a load after a store through a may-aliasing
   pointer reuses the stale value. *)

open Ir

type key =
  | Kbin of ibin * width * operand * operand
  | Kneg of width * operand
  | Knot of width * operand
  | Kfbin of fbin * operand * operand
  | Kcmp of cmp * width * operand * operand
  | Kfcmp of cmp * operand * operand
  | Kpcmp of cmp * operand * operand
  | Kpadd of operand * operand
  | Kpdiff of operand * operand
  | Kcast of cast * operand
  | Klea of sym
  | Kload of int * operand (* epoch, address *)

(* the registers a key reads *)
let key_regs (k : key) : reg list =
  let op acc = function Reg s -> s :: acc | ImmI _ | ImmF _ | Nullptr -> acc in
  match k with
  | Kbin (_, _, a, b) | Kfbin (_, a, b) | Kcmp (_, _, a, b) | Kfcmp (_, a, b)
  | Kpcmp (_, a, b) | Kpadd (a, b) | Kpdiff (a, b) ->
    op (op [] b) a
  | Kneg (_, a) | Knot (_, a) | Kcast (_, a) | Kload (_, a) -> op [] a
  | Klea _ -> []

(* A kill of [r] drops every entry that names [r]: the keys whose value
   is [r] or that read it, and the canon entries that point to it.  Two
   reverse indexes list them, so a kill touches those entries, not the
   tables: [keys_of] maps a register to the keys recorded with it as
   value or operand, [canon_of] to the registers recorded as equal to
   it.  An index entry may be stale (its table entry since replaced or
   removed), so a kill re-checks each one against the table. *)
let run ~unsafe (f : ifunc) : ifunc =
  let table : (key, reg) Hashtbl.t = Hashtbl.create 32 in
  (* canonical representative for registers proven equal by an earlier CSE
     hit, so chained redundancies (lea; load; lea'; load') fold in one
     pass *)
  let canon : (reg, reg) Hashtbl.t = Hashtbl.create 16 in
  let keys_of : (reg, key list) Hashtbl.t = Hashtbl.create 32 in
  let canon_of : (reg, reg list) Hashtbl.t = Hashtbl.create 16 in
  let epoch = ref 0 in
  let reset () =
    Hashtbl.reset table;
    Hashtbl.reset canon;
    Hashtbl.reset keys_of;
    Hashtbl.reset canon_of;
    incr epoch
  in
  let mentions r (k : key) = List.mem r (key_regs k) in
  let index tbl r x =
    Hashtbl.replace tbl r (x :: Option.value ~default:[] (Hashtbl.find_opt tbl r))
  in
  let take tbl r =
    match Hashtbl.find_opt tbl r with
    | None -> []
    | Some xs ->
      Hashtbl.remove tbl r;
      xs
  in
  let record k r =
    Hashtbl.replace table k r;
    List.iter (fun s -> index keys_of s k) (r :: key_regs k)
  in
  let kill r =
    List.iter
      (fun k ->
        match Hashtbl.find_opt table k with
        | Some v when v = r || mentions r k -> Hashtbl.remove table k
        | _ -> ())
      (take keys_of r);
    Hashtbl.remove canon r;
    List.iter
      (fun k ->
        match Hashtbl.find_opt canon k with
        | Some v when v = r -> Hashtbl.remove canon k
        | _ -> ())
      (take canon_of r)
  in
  let key_of = function
    | Ibin (op, w, _, _, a, b) -> Some (Kbin (op, w, a, b))
    | Ineg (w, _, _, a) -> Some (Kneg (w, a))
    | Inot (w, _, a) -> Some (Knot (w, a))
    | Ifbin (op, _, a, b) -> Some (Kfbin (op, a, b))
    | Icmp (c, w, _, a, b) -> Some (Kcmp (c, w, a, b))
    | Ifcmp (c, _, a, b) -> Some (Kfcmp (c, a, b))
    | Ipcmp (c, _, a, b) -> Some (Kpcmp (c, a, b))
    | Ipadd (_, a, b) -> Some (Kpadd (a, b))
    | Ipdiff (_, a, b) -> Some (Kpdiff (a, b))
    | Icast (k, _, a) -> Some (Kcast (k, a))
    | Ilea (_, s) -> Some (Klea s)
    | Iload (_, p) -> Some (Kload (!epoch, p))
    | _ -> None
  in
  let rewrite ins =
    (* canonicalize operands through known equivalences first *)
    let ins =
      Opt_common.map_operands
        (fun o ->
          match o with
          | Reg s -> (
            match Hashtbl.find_opt canon s with Some c -> Reg c | None -> o)
          | _ -> o)
        ins
    in
    (* memory effects: conservative epoch bump *)
    (match ins with
    | Istore _ -> if not unsafe then incr epoch
    | Icall _ | Ibuiltin _ -> incr epoch
    | _ -> ());
    match (key_of ins, Ir.def ins) with
    | Some k, Some r ->
      (match Hashtbl.find_opt table k with
      | Some prev when prev <> r ->
        kill r;
        Hashtbl.replace canon r prev;
        index canon_of prev r;
        [ Imov (r, Reg prev) ]
      | Some _ ->
        kill r;
        [ ins ]
      | None ->
        kill r;
        (* never record a key whose operands mention the destination: the
           key would describe the pre-assignment value of r *)
        if not (mentions r k) then record k r;
        [ ins ])
    | _, Some r ->
      kill r;
      [ ins ]
    | _, None -> [ ins ]
  in
  { f with code = Opt_common.rewrite_local ~reset rewrite f.code }
