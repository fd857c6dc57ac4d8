(* Dead code elimination.

   Two parts:
   1. unreachable code removal (blocks that no jump/branch/fallthrough can
      reach are deleted -- this is how a folded UB guard disappears);
   2. dead definition removal: pure instructions (including loads and
      divisions!) whose destination register is never used anywhere in the
      function are dropped. Deleting a dead division whose divisor may be
      zero removes the runtime trap an unoptimized build still has --
      deliberate UB-exploiting behavior.

   Part 1 runs once: what it leaves is reachable, and part 2 only drops
   pure instructions, which fall through, so no later removal changes
   what is reachable.  Part 2 peels dead definitions in layers, at most
   [max_layers]: a layer is every pure definition whose register has no
   use left, and dropping it releases the uses of its operands, whose
   definitions may form the next layer. *)

open Ir

(* indices of instructions reachable from the entry *)
let reachable (code : instr array) : bool array =
  let n = Array.length code in
  let label_pos = Hashtbl.create 16 in
  Array.iteri
    (fun i ins -> match ins with Ilabel l -> Hashtbl.replace label_pos l i | _ -> ())
    code;
  let seen = Array.make n false in
  let rec walk i =
    if i < n && not seen.(i) then begin
      seen.(i) <- true;
      match code.(i) with
      | Ijmp l -> (match Hashtbl.find_opt label_pos l with Some j -> walk j | None -> ())
      | Ibr (_, t, e) ->
        (match Hashtbl.find_opt label_pos t with Some j -> walk j | None -> ());
        (match Hashtbl.find_opt label_pos e with Some j -> walk j | None -> ())
      | Iret _ | Itrap _ -> ()
      | _ -> walk (i + 1)
    end
  in
  if n > 0 then walk 0;
  seen

let remove_unreachable (f : ifunc) : ifunc =
  let seen = reachable f.code in
  let out = ref [] in
  Array.iteri
    (fun i ins ->
      match ins with
      | Ilabel _ -> out := ins :: !out (* keep labels: cheap and safe *)
      | _ -> if seen.(i) then out := ins :: !out)
    f.code;
  { f with code = Array.of_list (List.rev !out) }

let max_layers = 16

let remove_dead_defs (f : ifunc) : ifunc =
  let code = f.code in
  let n = Array.length code in
  let uses = Hashtbl.create 64 in
  let count r = Option.value ~default:0 (Hashtbl.find_opt uses r) in
  Array.iter
    (fun ins -> List.iter (fun r -> Hashtbl.replace uses r (count r + 1)) (Ir.uses ins))
    code;
  (* register -> the pure instructions defining it *)
  let defs = Hashtbl.create 64 in
  Array.iteri
    (fun i ins ->
      match Ir.def ins with
      | Some r when Ir.removable_if_dead ins ->
        Hashtbl.replace defs r (i :: Option.value ~default:[] (Hashtbl.find_opt defs r))
      | _ -> ())
    code;
  let dead = Array.make n false in
  let defs_of r = Option.value ~default:[] (Hashtbl.find_opt defs r) in
  let first =
    Hashtbl.fold (fun r is acc -> if count r = 0 then List.rev_append is acc else acc) defs []
  in
  (* drop one layer; the next is the definitions of the registers whose
     last use it dropped *)
  let rec peel layer k =
    if layer <> [] && k > 0 then begin
      List.iter (fun i -> dead.(i) <- true) layer;
      let next = ref [] in
      List.iter
        (fun i ->
          List.iter
            (fun r ->
              let c = count r - 1 in
              Hashtbl.replace uses r c;
              if c = 0 then
                List.iter (fun j -> if not dead.(j) then next := j :: !next) (defs_of r))
            (Ir.uses code.(i)))
        layer;
      peel !next (k - 1)
    end
  in
  peel first max_layers;
  if not (Array.mem true dead) then f
  else begin
    let out = ref [] in
    for i = n - 1 downto 0 do
      if not dead.(i) then out := code.(i) :: !out
    done;
    { f with code = Array.of_list !out }
  end

let run (f : ifunc) : ifunc = remove_dead_defs (remove_unreachable f)
