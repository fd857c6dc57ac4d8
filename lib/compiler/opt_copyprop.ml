(* Block-local copy propagation.

   Forwards [Imov r, Reg s] and immediate moves into later uses. Register
   copies are invalidated when either side is redefined; memory is not
   involved (registers cannot alias), so stores never invalidate.

   [readers] indexes the copies by their source: [s] -> every [r] whose
   copy was [Reg s] when it was recorded.  An entry may be stale (the
   copy of [r] since replaced), so a kill re-checks each one; a kill
   thus touches the copies that read the register, not the table. *)

open Ir

let run (f : ifunc) : ifunc =
  let copies : (reg, operand) Hashtbl.t = Hashtbl.create 32 in
  let readers : (reg, reg list) Hashtbl.t = Hashtbl.create 32 in
  let reset () =
    Hashtbl.reset copies;
    Hashtbl.reset readers
  in
  let lookup r = Hashtbl.find_opt copies r in
  let kill r =
    Hashtbl.remove copies r;
    match Hashtbl.find_opt readers r with
    | None -> ()
    | Some ks ->
        Hashtbl.remove readers r;
        List.iter
          (fun k ->
            match Hashtbl.find_opt copies k with
            | Some (Reg s) when s = r -> Hashtbl.remove copies k
            | _ -> ())
          ks
  in
  let record r src =
    Hashtbl.replace copies r src;
    match src with
    | Reg s ->
        Hashtbl.replace readers s
          (r :: Option.value ~default:[] (Hashtbl.find_opt readers s))
    | _ -> ()
  in
  let rewrite ins =
    let ins = Opt_common.map_operands (Opt_common.subst_operand lookup) ins in
    (match Ir.def ins with Some r -> kill r | None -> ());
    (match ins with
    | Imov (r, src) | Iconst (r, src) ->
      (match src with
      | Reg s when s = r -> ()
      | _ -> record r src)
    | _ -> ());
    [ ins ]
  in
  { f with code = Opt_common.rewrite_local ~reset rewrite f.code }
