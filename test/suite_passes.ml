(* IR-level tests of the individual optimization passes, plus a stronger
   random-program agreement property with control flow and guarded array
   accesses (the "legal compilers" invariant under realistic programs). *)

open Cdcompiler
open Ir

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let mk_func code nregs =
  {
    name = "f";
    nparams = 0;
    nregs;
    slots = [||];
    code = Array.of_list code;
    code_lines = [||];
  }

let has f pred = Array.exists pred f.code
let count f pred = Array.fold_left (fun a i -> if pred i then a + 1 else a) 0 f.code

(* --- constfold --- *)

let test_constfold_chain () =
  (* r0=2; r1=3; r2=r0*r1; r3=r2+4 -> all constants *)
  let f =
    mk_func
      [
        Iconst (0, ImmI 2L);
        Iconst (1, ImmI 3L);
        Ibin (Bmul, W32, Csigned, 2, Reg 0, Reg 1);
        Ibin (Badd, W32, Csigned, 3, Reg 2, ImmI 4L);
        Iret (Some (Reg 3));
      ]
      4
  in
  let f' = Opt_constfold.run f in
  check_bool "chain folded" true
    (has f' (function Iconst (3, ImmI 10L) -> true | _ -> false))

let test_constfold_branch () =
  let f =
    mk_func
      [ Iconst (0, ImmI 1L); Ibr (Reg 0, 1, 2); Ilabel 1; Iret None; Ilabel 2; Iret None ]
      1
  in
  let f' = Opt_constfold.run f in
  check_bool "constant branch became a jump" true
    (has f' (function Ijmp 1 -> true | _ -> false))

let test_constfold_shift_poison () =
  (* x << 40 folds to 0 even with x unknown: the UB-exploiting choice *)
  let f = mk_func [ Ibin (Bshl, W32, Csigned, 1, Reg 0, ImmI 40L); Iret (Some (Reg 1)) ] 2 in
  let f' = Opt_constfold.run f in
  check_bool "poisoned shift" true
    (has f' (function Iconst (1, ImmI 0L) -> true | _ -> false))

let test_constfold_resets_at_labels () =
  (* the constant map must not survive a block boundary (a jump may enter
     at the label with a different value in r0) *)
  let f =
    mk_func
      [
        Iconst (0, ImmI 5L);
        Ijmp 1;
        Ilabel 1;
        Ibin (Badd, W32, Csigned, 1, Reg 0, ImmI 1L);
        Iret (Some (Reg 1));
      ]
      2
  in
  let f' = Opt_constfold.run f in
  check_bool "no folding across labels" true
    (has f' (function Ibin (Badd, _, _, 1, _, _) -> true | _ -> false))

(* --- copyprop --- *)

let test_copyprop_invalidation () =
  (* r1 = r0; r0 = 9; r2 = r1 + 0 -- r1 must NOT become the new r0 *)
  let f =
    mk_func
      [
        Imov (1, Reg 0);
        Iconst (0, ImmI 9L);
        Ibin (Badd, W32, Csigned, 2, Reg 1, ImmI 0L);
        Iret (Some (Reg 2));
      ]
      3
  in
  let f' = Opt_copyprop.run f in
  check_bool "stale copy not propagated" false
    (has f' (function Ibin (_, _, _, 2, Reg 0, _) -> true | _ -> false))

(* --- cse --- *)

let test_cse_dedups_lea_and_load () =
  let f =
    mk_func
      [
        Ilea (0, Sglobal "g");
        Iload (1, Reg 0);
        Ilea (2, Sglobal "g");
        Iload (3, Reg 2);
        Ibin (Badd, W32, Csigned, 4, Reg 1, Reg 3);
        Iret (Some (Reg 4));
      ]
      5
  in
  let f' = Opt_cse.run ~unsafe:false f in
  check_int "one lea survives" 1 (count f' (function Ilea _ -> true | _ -> false));
  check_int "one load survives" 1 (count f' (function Iload _ -> true | _ -> false))

let test_cse_store_clobbers_loads () =
  let f =
    mk_func
      [
        Ilea (0, Sglobal "g");
        Iload (1, Reg 0);
        Istore (Reg 0, ImmI 5L);
        Iload (2, Reg 0);
        Ibin (Badd, W32, Csigned, 3, Reg 1, Reg 2);
        Iret (Some (Reg 3));
      ]
      4
  in
  let safe = Opt_cse.run ~unsafe:false f in
  check_int "safe CSE keeps both loads" 2
    (count safe (function Iload _ -> true | _ -> false));
  let unsafe = Opt_cse.run ~unsafe:true f in
  check_int "the buggy CSE merges across the store" 1
    (count unsafe (function Iload _ -> true | _ -> false))

(* --- ubfold --- *)

let test_ubfold_add_pattern () =
  (* (x + y) < x  ~~>  y < 0 *)
  let f =
    mk_func
      [
        Ibin (Badd, W32, Csigned, 1, Reg 0, Reg 9);
        Icmp (Clt, W32, 2, Reg 1, Reg 0);
        Iret (Some (Reg 2));
      ]
      10
  in
  let f' = Opt_ubfold.run ~null_fold:false f in
  check_bool "rewritten to y<0" true
    (has f' (function Icmp (Clt, W32, 2, Reg 9, ImmI 0L) -> true | _ -> false))

let test_ubfold_sub_pattern () =
  (* (x - y) > x  ~~>  y < 0 *)
  let f =
    mk_func
      [
        Ibin (Bsub, W32, Csigned, 1, Reg 0, Reg 9);
        Icmp (Cgt, W32, 2, Reg 1, Reg 0);
        Iret (Some (Reg 2));
      ]
      10
  in
  let f' = Opt_ubfold.run ~null_fold:false f in
  check_bool "rewritten to y<0" true
    (has f' (function Icmp (Clt, W32, 2, Reg 9, ImmI 0L) -> true | _ -> false))

let test_ubfold_requires_signed () =
  (* the same shape with wrap semantics (compiler-introduced) must stay *)
  let f =
    mk_func
      [
        Ibin (Badd, W32, Cwrap, 1, Reg 0, Reg 9);
        Icmp (Clt, W32, 2, Reg 1, Reg 0);
        Iret (Some (Reg 2));
      ]
      10
  in
  let f' = Opt_ubfold.run ~null_fold:false f in
  check_bool "wrap arithmetic not rewritten" true
    (has f' (function Icmp (Clt, W32, 2, Reg 1, Reg 0) -> true | _ -> false))

let test_ubfold_null_check_after_deref () =
  let f =
    mk_func
      [
        Iload (1, Reg 0);
        Ipcmp (Ceq, 2, Reg 0, Nullptr);
        Ibr (Reg 2, 1, 2);
        Ilabel 1;
        Iret (Some (ImmI 1L));
        Ilabel 2;
        Iret (Some (Reg 1));
      ]
      3
  in
  let f' = Opt_ubfold.run ~null_fold:true f in
  check_bool "null test folded to false" true
    (has f' (function Iconst (2, ImmI 0L) -> true | _ -> false))

let test_ubfold_null_trap () =
  let f = mk_func [ Iload (1, Nullptr); Iret (Some (Reg 1)) ] 2 in
  let f' = Opt_ubfold.run ~null_trap:true ~null_fold:false f in
  check_bool "load from null became a trap" true
    (has f' (function Itrap _ -> true | _ -> false))

(* --- dce --- *)

let test_dce_unreachable_after_trap () =
  let f =
    mk_func
      [ Itrap "x"; Iconst (0, ImmI 1L); Iprint [ Flit "dead" ]; Iret None ]
      1
  in
  let f' = Opt_dce.run f in
  check_bool "code after a trap removed" false
    (has f' (function Iprint _ -> true | _ -> false))

let test_dce_keeps_side_effects () =
  let f =
    mk_func
      [
        Iconst (0, ImmI 1L);
        Istore (Reg 0, ImmI 2L); (* not removable even if r0 dead later *)
        Iprint [ Flit "hi" ];
        Iret None;
      ]
      1
  in
  let f' = Opt_dce.run f in
  check_bool "store kept" true (has f' (function Istore _ -> true | _ -> false));
  check_bool "print kept" true (has f' (function Iprint _ -> true | _ -> false))

let test_dce_removes_dead_division () =
  let f =
    mk_func
      [
        Iconst (0, ImmI 0L);
        Ibin (Bdiv, W32, Csigned, 1, ImmI 7L, Reg 0);
        Iret (Some (ImmI 0L));
      ]
      2
  in
  let f' = Opt_dce.run f in
  check_bool "dead division removed" false
    (has f' (function Ibin (Bdiv, _, _, _, _, _) -> true | _ -> false))

(* --- inline --- *)

let test_inline_respects_recursion () =
  let src =
    "int fact(int n) { if (n < 2) return 1; return n * fact(n - 1); }\n\
     int main() { return fact(5); }"
  in
  match Minic.frontend_of_source src with
  | Error e -> Alcotest.failf "frontend: %s" e
  | Ok tp ->
    let u = Pipeline.compile (Profiles.clangx "O3") tp in
    (* recursive callee is never inlined; the call must survive *)
    let main_f = Option.get (Ir.func u "main") in
    check_bool "recursive call survives" true
      (has main_f (function Icall (_, "fact", _) -> true | _ -> false));
    let r = Cdvm.Exec.run ~config:Cdvm.Exec.default_config u in
    check_bool "factorial correct" true (r.Cdvm.Exec.status = Cdvm.Trap.Exit 120)

let test_inline_chain_folds () =
  let src =
    "int three() { return 3; }\n\
     int four() { return three() + 1; }\n\
     int main() { return four() * 10; }"
  in
  match Minic.frontend_of_source src with
  | Error e -> Alcotest.failf "frontend: %s" e
  | Ok tp ->
    let u = Pipeline.compile (Profiles.clangx "O3") tp in
    let main_f = Option.get (Ir.func u "main") in
    check_int "no calls remain" 0 (count main_f (function Icall _ -> true | _ -> false));
    let r = Cdvm.Exec.run ~config:Cdvm.Exec.default_config u in
    check_bool "value" true (r.Cdvm.Exec.status = Cdvm.Trap.Exit 40)

(* --- peephole --- *)

let test_strength_pow2 () =
  let f = mk_func [ Ibin (Bmul, W32, Csigned, 1, Reg 0, ImmI 16L); Iret (Some (Reg 1)) ] 2 in
  let f' = Opt_peephole.strength f in
  check_bool "mul by 16 -> shl 4" true
    (has f' (function Ibin (Bshl, W32, Cwrap, 1, Reg 0, ImmI 4L) -> true | _ -> false))

let test_strength_non_pow2_kept () =
  let f = mk_func [ Ibin (Bmul, W32, Csigned, 1, Reg 0, ImmI 12L); Iret (Some (Reg 1)) ] 2 in
  let f' = Opt_peephole.strength f in
  check_bool "mul by 12 kept" true
    (has f' (function Ibin (Bmul, _, _, _, _, _) -> true | _ -> false))

let test_promote_mul_pattern () =
  let f =
    mk_func
      [
        Ibin (Bmul, W32, Csigned, 1, Reg 0, Reg 0);
        Icast (Sext3264, 2, Reg 1);
        Iret (Some (Reg 2));
      ]
      3
  in
  let f' = Opt_peephole.promote_mul f in
  check_bool "widened to a 64-bit multiply" true
    (has f' (function Ibin (Bmul, W64, _, 2, _, _) -> true | _ -> false))

(* --- the whole-table reference passes ---

   Copy propagation, CSE and DCE as they were before their kills read a
   reverse index and DCE peeled dead definitions in layers: each kill
   scans its whole table, and DCE reruns both removals to a fixpoint of
   at most 16 rounds.  The passes in the pipeline must give exactly
   their output. *)

module Ref_copyprop = struct
  let run (f : ifunc) : ifunc =
    let copies : (reg, operand) Hashtbl.t = Hashtbl.create 32 in
    let reset () = Hashtbl.reset copies in
    let lookup r = Hashtbl.find_opt copies r in
    let kill r =
      Hashtbl.remove copies r;
      Hashtbl.iter
        (fun k v -> match v with Reg s when s = r -> Hashtbl.remove copies k | _ -> ())
        copies
    in
    let rewrite ins =
      let ins = Opt_common.map_operands (Opt_common.subst_operand lookup) ins in
      (match Ir.def ins with Some r -> kill r | None -> ());
      (match ins with
      | Imov (r, src) | Iconst (r, src) ->
        (match src with
        | Reg s when s = r -> ()
        | _ -> Hashtbl.replace copies r src)
      | _ -> ());
      [ ins ]
    in
    { f with code = Opt_common.rewrite_local ~reset rewrite f.code }
end

module Ref_cse = struct
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

  let run ~unsafe (f : ifunc) : ifunc =
    let table : (key, reg) Hashtbl.t = Hashtbl.create 32 in
    (* canonical representative for registers proven equal by an earlier CSE
       hit, so chained redundancies (lea; load; lea'; load') fold in one
       pass *)
    let canon : (reg, reg) Hashtbl.t = Hashtbl.create 16 in
    let epoch = ref 0 in
    let reset () =
      Hashtbl.reset table;
      Hashtbl.reset canon;
      incr epoch
    in
    let mentions r (k : key) =
      let op = function Reg s -> s = r | ImmI _ | ImmF _ | Nullptr -> false in
      match k with
      | Kbin (_, _, a, b) | Kfbin (_, a, b) | Kcmp (_, _, a, b) | Kfcmp (_, a, b)
      | Kpcmp (_, a, b) | Kpadd (a, b) | Kpdiff (a, b) ->
        op a || op b
      | Kneg (_, a) | Knot (_, a) | Kcast (_, a) | Kload (_, a) -> op a
      | Klea _ -> false
    in
    let kill r =
      let dead = Hashtbl.fold (fun k v acc -> if v = r || mentions r k then k :: acc else acc) table [] in
      List.iter (Hashtbl.remove table) dead;
      Hashtbl.remove canon r;
      let stale =
        Hashtbl.fold (fun k v acc -> if v = r then k :: acc else acc) canon []
      in
      List.iter (Hashtbl.remove canon) stale
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
          [ Imov (r, Reg prev) ]
        | Some _ ->
          kill r;
          [ ins ]
        | None ->
          kill r;
          (* never record a key whose operands mention the destination: the
             key would describe the pre-assignment value of r *)
          if not (mentions r k) then Hashtbl.replace table k r;
          [ ins ])
      | _, Some r ->
        kill r;
        [ ins ]
      | _, None -> [ ins ]
    in
    { f with code = Opt_common.rewrite_local ~reset rewrite f.code }
end

module Ref_dce = struct
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

  let remove_unreachable (f : ifunc) : ifunc * bool =
    let seen = reachable f.code in
    let changed = ref false in
    let out = ref [] in
    Array.iteri
      (fun i ins ->
        if seen.(i) then out := ins :: !out
        else
          match ins with
          | Ilabel _ -> out := ins :: !out (* keep labels: cheap and safe *)
          | _ -> changed := true)
      f.code;
    ({ f with code = Array.of_list (List.rev !out) }, !changed)

  let remove_dead_defs (f : ifunc) : ifunc * bool =
    let use_count = Hashtbl.create 64 in
    let bump r = Hashtbl.replace use_count r (1 + Option.value ~default:0 (Hashtbl.find_opt use_count r)) in
    Array.iter (fun ins -> List.iter bump (Ir.uses ins)) f.code;
    let changed = ref false in
    let keep ins =
      match Ir.def ins with
      | Some r when Ir.removable_if_dead ins && not (Hashtbl.mem use_count r) ->
        changed := true;
        false
      | _ -> true
    in
    let code = Array.of_list (List.filter keep (Array.to_list f.code)) in
    ({ f with code }, !changed)

  let run (f : ifunc) : ifunc =
    let rec fixpoint f n =
      if n = 0 then f
      else begin
        let f1, c1 = remove_unreachable f in
        let f2, c2 = remove_dead_defs f1 in
        if c1 || c2 then fixpoint f2 (n - 1) else f2
      end
    in
    fixpoint f 16
end

(* [flags]' pass stack over [f] exactly as {!Pipeline.apply_func_passes}
   runs it, with each copyprop, CSE and DCE run also as its reference on
   the same input; a pass whose output differs is added to [bad] *)
let checked_passes bad (flags : Policy.opt_flags) (f : ifunc) : ifunc =
  let checked name pass reference f =
    let out = pass f in
    if compare out (reference f) <> 0 then bad := (name, f.name) :: !bad;
    out
  in
  let copyprop = checked "copyprop" Opt_copyprop.run Ref_copyprop.run in
  let cse =
    let unsafe = flags.Policy.unsafe_copyprop in
    checked "cse" (Opt_cse.run ~unsafe) (Ref_cse.run ~unsafe)
  in
  let dce = checked "dce" Opt_dce.run Ref_dce.run in
  let ( |>? ) f (cond, pass) = if cond then pass f else f in
  let f' =
    f
    |>? (flags.Policy.constfold, Opt_constfold.run)
    |>? (flags.Policy.copyprop, copyprop)
    |>? (flags.Policy.cse, cse)
    |>? ( flags.Policy.ub_branch_fold || flags.Policy.null_deref_trap,
          Opt_ubfold.run ~null_trap:flags.Policy.null_deref_trap
            ~null_fold:flags.Policy.null_check_fold )
    |>? (flags.Policy.constfold, Opt_constfold.run)
    |>? (flags.Policy.copyprop, copyprop)
    |>? (flags.Policy.promote_mul, Opt_peephole.promote_mul)
    |>? (flags.Policy.strength, Opt_peephole.strength)
    |>? (flags.Policy.fp_contract, Opt_peephole.fp_contract)
    |>? (flags.Policy.pow_to_exp2, Opt_peephole.pow_to_exp2)
    |>? (flags.Policy.dce, dce)
  in
  if f' == f then f else Pipeline.strip_lines f'

(* Whether, under every profile, [tp]'s functions optimized as
   {!Pipeline.optimize} does (first local round, two inline+cleanup
   rounds) through [checked_passes] met no pass that differed from its
   reference, and came out as {!Pipeline.optimize}'s: the second shows
   the walk fed every pass what the pipeline feeds it.  A differing pass
   is printed. *)
let passes_match_reference (tp : Minic.Tast.tprogram) : bool =
  List.for_all
    (fun (profile : Policy.profile) ->
      let bad = ref [] in
      let flags = profile.Policy.flags in
      let l = Pipeline.lower profile tp in
      let pass_all fs = List.map (fun (n, f) -> (n, checked_passes bad flags f)) fs in
      let funcs =
        if Pipeline.pass_flags flags = Pipeline.pass_flags Policy.no_opt then
          l.Lower.lfuncs
        else begin
          let fs1 = pass_all l.Lower.lfuncs in
          if flags.Policy.inline_limit > 0 then begin
            let round fs =
              let u =
                Opt_inline.run ~limit:flags.Policy.inline_limit
                  {
                    funcs = fs;
                    globals = l.Lower.lglobals;
                    runtime = profile.Policy.runtime;
                    impl_name = profile.Policy.pname;
                  }
              in
              List.map (fun (n, f) -> (n, Pipeline.strip_lines f)) (pass_all u.funcs)
            in
            round (round fs1)
          end
          else fs1
        end
      in
      let expected = (Pipeline.optimize profile l).funcs in
      List.iter
        (fun (pass, fn) ->
          Printf.printf "%s differs from its reference on %s under %s\n" pass fn
            profile.Policy.pname)
        !bad;
      !bad = [] && compare funcs expected = 0)
    Profiles.extended_with_buggy

let prop_passes_match_reference =
  QCheck.Test.make ~name:"copyprop, cse and dce = the reference on effgen programs"
    ~count:30
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      passes_match_reference
        (Minic.frontend_exn (Gen.Effgen.generate ~seed).Gen.Effgen.prog))

(* random functions over five registers and three labels, dense in
   redefinitions of registers that earlier copies, keys and canon
   entries name: the kills compiled programs seldom reach *)
let gen_ir_func =
  let open QCheck.Gen in
  let reg = int_bound 4 and label = int_bound 2 in
  let operand =
    frequency [ (3, map (fun r -> Reg r) reg); (1, map (fun k -> ImmI (Int64.of_int k)) (int_bound 3)) ]
  in
  let instr =
    frequency
      [
        (3, map2 (fun r k -> Iconst (r, ImmI (Int64.of_int k))) reg (int_bound 3));
        (4, map2 (fun r o -> Imov (r, o)) reg operand);
        (4, map3 (fun r a b -> Ibin (Badd, W32, Csigned, r, a, b)) reg operand operand);
        (2, map3 (fun r a b -> Icmp (Clt, W32, r, a, b)) reg operand operand);
        (1, map2 (fun r a -> Ineg (W32, Csigned, r, a)) reg operand);
        (2, map2 (fun r k -> Ilea (r, Sslot k)) reg (int_bound 1));
        (3, map2 (fun r a -> Iload (r, a)) reg operand);
        (2, map2 (fun a b -> Istore (a, b)) operand operand);
        (1, map2 (fun r a -> Icall (Some r, "g", [ a ])) reg operand);
        (1, map (fun a -> Iprint [ Fint a ]) operand);
        (1, map (fun l -> Ilabel l) label);
        (1, map (fun l -> Ijmp l) label);
        (1, map3 (fun a l1 l2 -> Ibr (a, l1, l2)) operand label label);
        (1, map (fun a -> Iret (Some a)) operand);
      ]
  in
  let* n = int_range 1 40 in
  let* code = list_repeat n instr in
  return (mk_func code 5)

let prop_passes_match_reference_ir =
  QCheck.Test.make ~name:"copyprop, cse and dce = the reference on random IR"
    ~count:2000
    (QCheck.make ~print:(fun f -> Format.asprintf "%d instructions" (Array.length f.code))
       gen_ir_func)
    (fun f ->
      compare (Opt_copyprop.run f) (Ref_copyprop.run f) = 0
      && compare (Opt_cse.run ~unsafe:false f) (Ref_cse.run ~unsafe:false f) = 0
      && compare (Opt_cse.run ~unsafe:true f) (Ref_cse.run ~unsafe:true f) = 0
      && compare (Opt_dce.run f) (Ref_dce.run f) = 0)

(* a dead chain r1 <- r0, r2 <- r1, ..., r17 <- r16 is one layer per
   link: sixteen are peeled, and the first link stays *)
let test_dce_layer_cap () =
  let chain =
    List.init 17 (fun i -> Ibin (Badd, W32, Csigned, i + 1, Reg i, ImmI 1L))
  in
  let f = mk_func (chain @ [ Iret None ]) 18 in
  let f' = Opt_dce.run f in
  check_bool "= the reference" true (compare f' (Ref_dce.run f) = 0);
  check_int "one link left" 1 (count f' (function Ibin _ -> true | _ -> false))

let test_passes_match_reference_juliet () =
  List.iter
    (fun (t : Juliet.Testcase.t) ->
      check_bool (t.Juliet.Testcase.name ^ " bad") true
        (passes_match_reference (Juliet.Testcase.frontend_bad t));
      check_bool (t.Juliet.Testcase.name ^ " good") true
        (passes_match_reference (Juliet.Testcase.frontend_good t)))
    (Juliet.Suite.quick ())

let test_passes_match_reference_targets () =
  List.iter
    (fun (p : Projects.Project.t) ->
      check_bool p.Projects.Project.pname true
        (passes_match_reference (Projects.Project.frontend p)))
    Projects.Registry.all

(* --- whole-pipeline agreement property --- *)

(* random "parser-like" programs: loops over input with guarded array
   accesses and mixed arithmetic; all well-defined by construction *)
let gen_program_src =
  let open QCheck.Gen in
  let arith_op = oneofl [ "+"; "-"; "*" ] in
  let small = int_range 1 9 in
  let* n = int_range 4 8 in
  let* op1 = arith_op and* op2 = arith_op in
  let* k1 = small and* k2 = small and* k3 = small in
  let* use_while = bool in
  let loop_body =
    Printf.sprintf
      "    int c = peek(i);\n\
      \    if (c < 0) { break; }\n\
      \    int slot = (c %s %d) %% %d;\n\
      \    if (slot < 0) { slot = 0 - slot; }\n\
      \    tab[slot] = tab[slot] + 1;\n\
      \    acc = acc %s (c %% %d) %s %d;\n"
      op1 k1 n op2 (k2 + 1) op2 k3
  in
  let loop =
    if use_while then
      Printf.sprintf
        "  int i = 0;\n  while (i < input_len() && i < 24) {\n%s    i = i + 1;\n  }\n"
        loop_body
    else
      Printf.sprintf "  for (int i = 0; i < 24; i++) {\n%s  }\n"
        (String.concat ""
           [ "    if (i >= input_len()) { break; }\n"; loop_body ])
  in
  return
    (Printf.sprintf
       "int main() {\n\
       \  int tab[%d];\n\
       \  for (int z = 0; z < %d; z++) tab[z] = 0;\n\
       \  int acc = 0;\n\
        %s\
       \  for (int z = 0; z < %d; z++) print(\"%%d \", tab[z]);\n\
       \  print(\"| %%d\\n\", acc);\n\
       \  return 0;\n\
        }"
       n n loop n)

let prop_parsers_agree =
  QCheck.Test.make ~name:"all implementations agree on well-defined parsers"
    ~count:40
    QCheck.(pair (make gen_program_src) (string_of_size (QCheck.Gen.int_range 0 12)))
    (fun (src, input) ->
      match Minic.frontend_of_source src with
      | Error _ -> false
      | Ok tp ->
        let oracle = Compdiff.Oracle.create ~fuel:100_000 tp in
        not (Compdiff.Oracle.is_divergence (Compdiff.Oracle.check oracle ~input)))

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "passes.constfold",
      [
        tc "chain" test_constfold_chain;
        tc "branch" test_constfold_branch;
        tc "shift poison" test_constfold_shift_poison;
        tc "block boundaries" test_constfold_resets_at_labels;
      ] );
    ("passes.copyprop", [ tc "invalidation" test_copyprop_invalidation ]);
    ( "passes.cse",
      [
        tc "lea/load dedup" test_cse_dedups_lea_and_load;
        tc "store clobbers" test_cse_store_clobbers_loads;
      ] );
    ( "passes.ubfold",
      [
        tc "add pattern" test_ubfold_add_pattern;
        tc "sub pattern" test_ubfold_sub_pattern;
        tc "signedness required" test_ubfold_requires_signed;
        tc "null check after deref" test_ubfold_null_check_after_deref;
        tc "null trap" test_ubfold_null_trap;
      ] );
    ( "passes.dce",
      [
        tc "unreachable after trap" test_dce_unreachable_after_trap;
        tc "side effects kept" test_dce_keeps_side_effects;
        tc "dead division removed" test_dce_removes_dead_division;
      ] );
    ( "passes.inline",
      [
        tc "recursion guard" test_inline_respects_recursion;
        tc "call chains" test_inline_chain_folds;
      ] );
    ( "passes.peephole",
      [
        tc "strength pow2" test_strength_pow2;
        tc "strength non-pow2" test_strength_non_pow2_kept;
        tc "promote mul" test_promote_mul_pattern;
      ] );
    ( "passes.agreement",
      [ QCheck_alcotest.to_alcotest prop_parsers_agree ] );
    ( "passes.reference",
      [
        QCheck_alcotest.to_alcotest prop_passes_match_reference;
        QCheck_alcotest.to_alcotest prop_passes_match_reference_ir;
        tc "sixteen dead layers" test_dce_layer_cap;
        tc "Juliet quick" test_passes_match_reference_juliet;
        tc "the 23 targets" test_passes_match_reference_targets;
      ] );
  ]
