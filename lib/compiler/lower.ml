(* Lowering: typed AST -> IR, parameterized by a {!Policy.lowering}, the
   three fields of a profile it reads.

   This phase is where the unspecified-behaviour freedoms of the C
   standard are fixed by each implementation:

   - the evaluation order of call and print arguments ([arg_order]);
   - the meaning of [__LINE__] in multi-line statements ([line]);
   - which locals live in registers vs the stack frame
     ([promote_scalars]); an unpromoted scalar reads stack junk when used
     uninitialized, a promoted one reads the register-junk policy value;
   - falling off the end of a non-void function returns an unwritten
     register (the C UB of a missing return). *)

open Minic
open Ir

type storage = Streg of reg | Stslot of int

type lenv = {
  lowering : Policy.lowering;
  mutable rev_code : instr list;
  mutable nregs : int;
  mutable nlabels : int;
  storage : (string, storage) Hashtbl.t;
  mutable slots : frame_slot list; (* reversed *)
  mutable nslots : int;
  mutable loop_stack : (label * label) list; (* (break, continue) *)
  globals : (string, Ast.typ) Hashtbl.t;
  mutable rev_lines : int list;  (* statement line per emitted instruction *)
  mutable cur_line : int;        (* line of the statement being lowered *)
}

let emit env i =
  env.rev_code <- i :: env.rev_code;
  env.rev_lines <- env.cur_line :: env.rev_lines

let fresh_reg env =
  let r = env.nregs in
  env.nregs <- r + 1;
  r

let fresh_label env =
  let l = env.nlabels in
  env.nlabels <- l + 1;
  l

let add_slot env name size =
  let idx = env.nslots in
  env.nslots <- idx + 1;
  env.slots <- { slot_name = name; slot_size = size } :: env.slots;
  idx

let width_of = function
  | Ast.Tlong -> W64
  | Ast.Tint | Ast.Tptr _ | Ast.Tarr _ | Ast.Tdouble | Ast.Tvoid -> W32

let is_float_ty = function Ast.Tdouble -> true | _ -> false
let is_ptr_ty = function Ast.Tptr _ | Ast.Tarr _ -> true | _ -> false

let norm32 v = Int64.of_int32 (Int64.to_int32 v)

(* --- address-taken analysis: which locals must live in memory --- *)

let rec taken_expr acc (e : Tast.texpr) =
  match e.Tast.te with
  | Tast.TAddr { Tast.te = Tast.TVar (Tast.Vlocal, x); _ } -> x :: acc
  | Tast.TAddr inner -> taken_expr acc inner
  | Tast.TConstI _ | Tast.TConstF _ | Tast.TStr _ | Tast.TVar _ | Tast.TLine -> acc
  | Tast.TUnop (_, a) | Tast.TCast (_, a) | Tast.TDecay a -> taken_expr acc a
  | Tast.TBinop (_, a, b) | Tast.TIndex (a, b) | Tast.TAssign (a, b) ->
    taken_expr (taken_expr acc a) b
  | Tast.TDeref a -> taken_expr acc a
  | Tast.TCall (_, args) -> List.fold_left taken_expr acc args
  | Tast.TCond (a, b, c) -> taken_expr (taken_expr (taken_expr acc a) b) c

let rec taken_stmt acc (s : Tast.tstmt) =
  match s.Tast.ts with
  | Tast.TSExpr e -> taken_expr acc e
  | Tast.TSDecl (_, _, Some e) -> taken_expr acc e
  | Tast.TSDecl (_, _, None) -> acc
  | Tast.TSIf (c, a, b) ->
    let acc = taken_expr acc c in
    taken_block (taken_block acc a) b
  | Tast.TSWhile (c, b) -> taken_block (taken_expr acc c) b
  | Tast.TSReturn (Some e) -> taken_expr acc e
  | Tast.TSReturn None | Tast.TSBreak | Tast.TSContinue -> acc
  | Tast.TSPrint (_, args) -> List.fold_left taken_expr acc args
  | Tast.TSBlock b -> taken_block acc b

and taken_block acc b = List.fold_left taken_stmt acc b

(* collect every local declaration with its type, in source order *)
let rec decls_stmt acc (s : Tast.tstmt) =
  match s.Tast.ts with
  | Tast.TSDecl (t, name, _) -> (name, t) :: acc
  | Tast.TSIf (_, a, b) -> decls_block (decls_block acc a) b
  | Tast.TSWhile (_, b) -> decls_block acc b
  | Tast.TSBlock b -> decls_block acc b
  | Tast.TSExpr _ | Tast.TSReturn _ | Tast.TSBreak | Tast.TSContinue
  | Tast.TSPrint _ -> acc

and decls_block acc b = List.fold_left decls_stmt acc b

(* --- expression lowering --- *)

let line_const env (loc : Ast.loc) =
  match env.lowering.Policy.lw_line with
  | Policy.Ltoken -> loc.Ast.line
  | Policy.Lstmt -> loc.Ast.stmt_line

(* order arguments according to the profile's evaluation-order policy;
   returns temps in original (declaration) order *)
let order_args env (args : 'a list) (lower1 : 'a -> operand) : operand list =
  let indexed = List.mapi (fun i a -> (i, a)) args in
  let eval_sequence =
    match env.lowering.Policy.lw_arg_order with
    | Policy.Left_to_right -> indexed
    | Policy.Right_to_left -> List.rev indexed
  in
  let results =
    List.map
      (fun (i, a) ->
        let v = lower1 a in
        (* pin the value in a register so later argument evaluation cannot
           be reordered past it *)
        match v with
        | Reg _ | ImmI _ | ImmF _ | Nullptr -> (i, v))
      eval_sequence
  in
  List.map snd (List.sort (fun (i, _) (j, _) -> compare i j) results)

let rec lower_expr env (e : Tast.texpr) : operand =
  match e.Tast.te with
  | Tast.TConstI v ->
    (match e.Tast.tty with
    | Ast.Tlong -> ImmI v
    | _ -> ImmI (norm32 v))
  | Tast.TConstF f -> ImmF f
  | Tast.TStr name ->
    let r = fresh_reg env in
    emit env (Ilea (r, Sglobal name));
    Reg r
  | Tast.TLine -> ImmI (Int64.of_int (line_const env e.Tast.tloc))
  | Tast.TVar (kind, name) -> lower_var_read env kind name e.Tast.tty
  | Tast.TUnop (op, a) -> lower_unop env op a e.Tast.tty
  | Tast.TBinop ((Ast.Land | Ast.Lor) as op, a, b) -> lower_logic env op a b
  | Tast.TBinop (op, a, b) -> lower_binop env op a b e.Tast.tty
  | Tast.TCall (name, args) ->
    let temps = order_args env args (fun a -> pin env (lower_expr env a)) in
    let dest = if e.Tast.tty = Ast.Tvoid then None else Some (fresh_reg env) in
    if Ast.is_builtin name then emit env (Ibuiltin (dest, name, temps))
    else emit env (Icall (dest, name, temps));
    (match dest with Some r -> Reg r | None -> ImmI 0L)
  | Tast.TIndex _ | Tast.TDeref _ ->
    let addr = lower_address env e in
    let r = fresh_reg env in
    emit env (Iload (r, addr));
    Reg r
  | Tast.TAddr lv -> lower_address env lv
  | Tast.TAssign (lv, rhs) ->
    let v = pin env (lower_expr env rhs) in
    lower_store env lv v;
    v
  | Tast.TDecay inner -> lower_decay env inner
  | Tast.TCast (to_ty, a) -> lower_cast env to_ty a
  | Tast.TCond (c, t, f) ->
    let lt = fresh_label env and lf = fresh_label env and lend = fresh_label env in
    let r = fresh_reg env in
    let cv = lower_expr env c in
    emit env (Ibr (cv, lt, lf));
    emit env (Ilabel lt);
    let tv = lower_expr env t in
    emit env (Imov (r, tv));
    emit env (Ijmp lend);
    emit env (Ilabel lf);
    let fv = lower_expr env f in
    emit env (Imov (r, fv));
    emit env (Ilabel lend);
    Reg r

(* force a value into a register (used to pin evaluation order) *)
and pin env (v : operand) : operand =
  match v with
  | Reg _ -> v
  | ImmI _ | ImmF _ | Nullptr ->
    let r = fresh_reg env in
    emit env (Iconst (r, v));
    Reg r

and lower_var_read env kind name ty =
  match kind with
  | Tast.Vlocal ->
    (match Hashtbl.find_opt env.storage name with
    | Some (Streg r) -> Reg r
    | Some (Stslot i) ->
      let a = fresh_reg env in
      emit env (Ilea (a, Sslot i));
      (match ty with
      | Ast.Tarr _ -> Reg a (* handled via TDecay, but be permissive *)
      | _ ->
        let r = fresh_reg env in
        emit env (Iload (r, Reg a));
        Reg r)
    | None -> invalid_arg ("Lower: unknown local " ^ name))
  | Tast.Vglobal ->
    let a = fresh_reg env in
    emit env (Ilea (a, Sglobal name));
    (match ty with
    | Ast.Tarr _ -> Reg a
    | _ ->
      let r = fresh_reg env in
      emit env (Iload (r, Reg a));
      Reg r)

(* address of an lvalue or array value *)
and lower_address env (e : Tast.texpr) : operand =
  match e.Tast.te with
  | Tast.TVar (Tast.Vlocal, name) ->
    (match Hashtbl.find_opt env.storage name with
    | Some (Stslot i) ->
      let a = fresh_reg env in
      emit env (Ilea (a, Sslot i));
      Reg a
    | Some (Streg _) ->
      (* the checker only lets & reach memory-resident variables; storage
         assignment puts every address-taken local in a slot *)
      invalid_arg "Lower: address of a register-allocated local"
    | None -> invalid_arg ("Lower: unknown local " ^ name))
  | Tast.TVar (Tast.Vglobal, name) ->
    let a = fresh_reg env in
    emit env (Ilea (a, Sglobal name));
    Reg a
  | Tast.TIndex (p, i) ->
    let base = lower_expr env p in
    let iv = lower_expr env i in
    let scale =
      match p.Tast.tty with
      | Ast.Tptr t -> Ast.sizeof t
      | _ -> 1
    in
    let off =
      if scale = 1 then iv
      else begin
        let r = fresh_reg env in
        emit env (Ibin (Bmul, W64, Cwrap, r, iv, ImmI (Int64.of_int scale)));
        Reg r
      end
    in
    let a = fresh_reg env in
    emit env (Ipadd (a, base, off));
    Reg a
  | Tast.TDeref p -> lower_expr env p
  | Tast.TCast (_, inner) -> lower_address env inner
  | Tast.TStr name ->
    let a = fresh_reg env in
    emit env (Ilea (a, Sglobal name));
    Reg a
  | _ -> invalid_arg "Lower: not an lvalue"

and lower_decay env (inner : Tast.texpr) : operand =
  (* the value of an array expression is its address *)
  lower_address env inner

and lower_store env (lv : Tast.texpr) (v : operand) =
  match lv.Tast.te with
  | Tast.TVar (Tast.Vlocal, name) ->
    (match Hashtbl.find_opt env.storage name with
    | Some (Streg r) -> emit env (Imov (r, v))
    | Some (Stslot _) | None ->
      let a = lower_address env lv in
      emit env (Istore (a, v)))
  | _ ->
    let a = lower_address env lv in
    emit env (Istore (a, v))

and lower_unop env op (a : Tast.texpr) ty =
  let v = lower_expr env a in
  let r = fresh_reg env in
  (match op with
  | Ast.Neg ->
    if is_float_ty ty then emit env (Ifneg (r, v))
    else emit env (Ineg (width_of ty, Csigned, r, v))
  | Ast.Bnot -> emit env (Inot (width_of ty, r, v))
  | Ast.Lnot ->
    if is_float_ty a.Tast.tty then emit env (Ifcmp (Ceq, r, v, ImmF 0.))
    else if is_ptr_ty a.Tast.tty then emit env (Ipcmp (Ceq, r, v, Nullptr))
    else emit env (Icmp (Ceq, width_of a.Tast.tty, r, v, ImmI 0L)));
  Reg r

and lower_logic env op (a : Tast.texpr) (b : Tast.texpr) =
  (* short-circuit: a && b, a || b produce 0/1 *)
  let r = fresh_reg env in
  let l_b = fresh_label env and l_short = fresh_label env and l_end = fresh_label env in
  let va = lower_expr env a in
  (match op with
  | Ast.Land -> emit env (Ibr (va, l_b, l_short))
  | Ast.Lor -> emit env (Ibr (va, l_short, l_b))
  | _ -> assert false);
  emit env (Ilabel l_b);
  let vb = lower_expr env b in
  let rb = fresh_reg env in
  if is_float_ty b.Tast.tty then emit env (Ifcmp (Cne, rb, vb, ImmF 0.))
  else if is_ptr_ty b.Tast.tty then emit env (Ipcmp (Cne, rb, vb, Nullptr))
  else emit env (Icmp (Cne, width_of b.Tast.tty, rb, vb, ImmI 0L));
  emit env (Imov (r, Reg rb));
  emit env (Ijmp l_end);
  emit env (Ilabel l_short);
  emit env (Iconst (r, ImmI (match op with Ast.Lor -> 1L | _ -> 0L)));
  emit env (Ilabel l_end);
  Reg r

and lower_binop env op (a : Tast.texpr) (b : Tast.texpr) result_ty =
  let ta = a.Tast.tty and tb = b.Tast.tty in
  (* pointer arithmetic and comparison *)
  if is_ptr_ty ta || is_ptr_ty tb then lower_ptr_binop env op a b
  else if is_float_ty ta || is_float_ty tb then begin
    let va = lower_expr env a in
    let vb = lower_expr env b in
    let r = fresh_reg env in
    (match op with
    | Ast.Add -> emit env (Ifbin (FAdd, r, va, vb))
    | Ast.Sub -> emit env (Ifbin (FSub, r, va, vb))
    | Ast.Mul -> emit env (Ifbin (FMul, r, va, vb))
    | Ast.Div -> emit env (Ifbin (FDiv, r, va, vb))
    | Ast.Lt -> emit env (Ifcmp (Clt, r, va, vb))
    | Ast.Le -> emit env (Ifcmp (Cle, r, va, vb))
    | Ast.Gt -> emit env (Ifcmp (Cgt, r, va, vb))
    | Ast.Ge -> emit env (Ifcmp (Cge, r, va, vb))
    | Ast.Eq -> emit env (Ifcmp (Ceq, r, va, vb))
    | Ast.Ne -> emit env (Ifcmp (Cne, r, va, vb))
    | _ -> invalid_arg "Lower: invalid float operation");
    Reg r
  end
  else begin
    let va = lower_expr env a in
    let vb = lower_expr env b in
    let r = fresh_reg env in
    let w_op = width_of ta in
    let w_res = width_of result_ty in
    (match op with
    | Ast.Add -> emit env (Ibin (Badd, w_res, Csigned, r, va, vb))
    | Ast.Sub -> emit env (Ibin (Bsub, w_res, Csigned, r, va, vb))
    | Ast.Mul -> emit env (Ibin (Bmul, w_res, Csigned, r, va, vb))
    | Ast.Div -> emit env (Ibin (Bdiv, w_res, Csigned, r, va, vb))
    | Ast.Mod -> emit env (Ibin (Bmod, w_res, Csigned, r, va, vb))
    | Ast.Shl -> emit env (Ibin (Bshl, w_res, Csigned, r, va, vb))
    | Ast.Shr -> emit env (Ibin (Bshr, w_res, Csigned, r, va, vb))
    | Ast.Band -> emit env (Ibin (Band, w_res, Cwrap, r, va, vb))
    | Ast.Bor -> emit env (Ibin (Bor, w_res, Cwrap, r, va, vb))
    | Ast.Bxor -> emit env (Ibin (Bxor, w_res, Cwrap, r, va, vb))
    | Ast.Lt -> emit env (Icmp (Clt, w_op, r, va, vb))
    | Ast.Le -> emit env (Icmp (Cle, w_op, r, va, vb))
    | Ast.Gt -> emit env (Icmp (Cgt, w_op, r, va, vb))
    | Ast.Ge -> emit env (Icmp (Cge, w_op, r, va, vb))
    | Ast.Eq -> emit env (Icmp (Ceq, w_op, r, va, vb))
    | Ast.Ne -> emit env (Icmp (Cne, w_op, r, va, vb))
    | Ast.Land | Ast.Lor -> assert false);
    Reg r
  end

and lower_ptr_binop env op (a : Tast.texpr) (b : Tast.texpr) =
  let va = lower_expr env a in
  let vb = lower_expr env b in
  let r = fresh_reg env in
  let scale_of t = match t with Ast.Tptr el -> Ast.sizeof el | _ -> 1 in
  (match op with
  | Ast.Add when is_ptr_ty a.Tast.tty ->
    let off = scaled env vb (scale_of a.Tast.tty) in
    emit env (Ipadd (r, va, off))
  | Ast.Sub when is_ptr_ty a.Tast.tty && is_ptr_ty b.Tast.tty ->
    emit env (Ipdiff (r, va, vb))
  | Ast.Sub when is_ptr_ty a.Tast.tty ->
    let off = scaled env vb (scale_of a.Tast.tty) in
    let n = fresh_reg env in
    emit env (Ineg (W64, Cwrap, n, off));
    emit env (Ipadd (r, va, Reg n))
  | Ast.Lt -> emit env (Ipcmp (Clt, r, va, vb))
  | Ast.Le -> emit env (Ipcmp (Cle, r, va, vb))
  | Ast.Gt -> emit env (Ipcmp (Cgt, r, va, vb))
  | Ast.Ge -> emit env (Ipcmp (Cge, r, va, vb))
  | Ast.Eq -> emit env (Ipcmp (Ceq, r, va, vb))
  | Ast.Ne -> emit env (Ipcmp (Cne, r, va, vb))
  | _ -> invalid_arg "Lower: invalid pointer operation");
  Reg r

and scaled env v scale =
  if scale = 1 then v
  else begin
    let r = fresh_reg env in
    emit env (Ibin (Bmul, W64, Cwrap, r, v, ImmI (Int64.of_int scale)));
    Reg r
  end

and lower_cast env to_ty (a : Tast.texpr) =
  let from_ty = a.Tast.tty in
  let v = lower_expr env a in
  let same = Ast.equal_typ from_ty to_ty in
  if same then v
  else begin
    let r = fresh_reg env in
    (match (from_ty, to_ty) with
    | Ast.Tint, Ast.Tlong -> emit env (Icast (Sext3264, r, v))
    | Ast.Tlong, Ast.Tint -> emit env (Icast (Trunc6432, r, v))
    | Ast.Tint, Ast.Tdouble -> emit env (Icast (I2F W32, r, v))
    | Ast.Tlong, Ast.Tdouble -> emit env (Icast (I2F W64, r, v))
    | Ast.Tdouble, Ast.Tint -> emit env (Icast (F2I W32, r, v))
    | Ast.Tdouble, Ast.Tlong -> emit env (Icast (F2I W64, r, v))
    | Ast.Tptr _, Ast.Tint -> emit env (Icast (P2I W32, r, v))
    | Ast.Tptr _, Ast.Tlong -> emit env (Icast (P2I W64, r, v))
    | (Ast.Tint | Ast.Tlong), Ast.Tptr _ -> emit env (Icast (I2P, r, v))
    | Ast.Tptr _, Ast.Tptr _ -> emit env (Imov (r, v))
    | _ ->
      invalid_arg
        (Printf.sprintf "Lower: cast %s -> %s" (Ast.typ_to_string from_ty)
           (Ast.typ_to_string to_ty)));
    Reg r
  end

(* --- statements --- *)

let rec lower_stmt env (s : Tast.tstmt) =
  env.cur_line <- s.Tast.tsloc.Ast.stmt_line;
  match s.Tast.ts with
  | Tast.TSExpr e -> ignore (lower_expr env e)
  | Tast.TSDecl (_, name, init) ->
    (match init with
    | None -> () (* stays uninitialized: junk per storage class *)
    | Some e ->
      let v = lower_expr env e in
      (match Hashtbl.find_opt env.storage name with
      | Some (Streg r) -> emit env (Imov (r, v))
      | Some (Stslot i) ->
        let a = fresh_reg env in
        emit env (Ilea (a, Sslot i));
        emit env (Istore (Reg a, v))
      | None -> invalid_arg ("Lower: undeclared local " ^ name)))
  | Tast.TSIf (c, t, f) ->
    let lt = fresh_label env and lf = fresh_label env and lend = fresh_label env in
    let cv = lower_expr env c in
    emit env (Ibr (cv, lt, lf));
    emit env (Ilabel lt);
    lower_block env t;
    emit env (Ijmp lend);
    emit env (Ilabel lf);
    lower_block env f;
    emit env (Ilabel lend)
  | Tast.TSWhile (c, body) ->
    let lhead = fresh_label env and lbody = fresh_label env and lend = fresh_label env in
    emit env (Ijmp lhead);
    emit env (Ilabel lhead);
    let cv = lower_expr env c in
    emit env (Ibr (cv, lbody, lend));
    emit env (Ilabel lbody);
    env.loop_stack <- (lend, lhead) :: env.loop_stack;
    lower_block env body;
    (match env.loop_stack with
    | _ :: rest -> env.loop_stack <- rest
    | [] -> assert false);
    emit env (Ijmp lhead);
    emit env (Ilabel lend)
  | Tast.TSReturn None -> emit env (Iret None)
  | Tast.TSReturn (Some e) ->
    let v = lower_expr env e in
    emit env (Iret (Some v))
  | Tast.TSBreak ->
    (match env.loop_stack with
    | (lend, _) :: _ -> emit env (Ijmp lend)
    | [] -> invalid_arg "Lower: break outside loop")
  | Tast.TSContinue ->
    (match env.loop_stack with
    | (_, lhead) :: _ -> emit env (Ijmp lhead)
    | [] -> invalid_arg "Lower: continue outside loop")
  | Tast.TSPrint (fmt, args) ->
    let temps = order_args env args (fun a -> pin env (lower_expr env a)) in
    let items = build_fmt_items fmt args temps in
    emit env (Iprint items)
  | Tast.TSBlock b -> lower_block env b

and lower_block env b = List.iter (lower_stmt env) b

(* interleave format-string text with the evaluated arguments *)
and build_fmt_items fmt (args : Tast.texpr list) (temps : operand list) : fmt_item list
    =
  let items = ref [] in
  let push it = items := it :: !items in
  let buf = Buffer.create 16 in
  let flush_lit () =
    if Buffer.length buf > 0 then begin
      push (Flit (Buffer.contents buf));
      Buffer.clear buf
    end
  in
  let rem_args = ref (List.combine args temps) in
  let next_arg () =
    match !rem_args with
    | (a, t) :: rest ->
      rem_args := rest;
      (a, t)
    | [] -> invalid_arg "Lower: format/argument mismatch"
  in
  let n = String.length fmt in
  let i = ref 0 in
  while !i < n do
    if fmt.[!i] = '%' && !i + 1 < n then begin
      (match fmt.[!i + 1] with
      | '%' -> Buffer.add_char buf '%'
      | 'd' ->
        flush_lit ();
        let _, t = next_arg () in
        push (Fint t)
      | 'u' ->
        flush_lit ();
        let _, t = next_arg () in
        push (Fuint t)
      | 'x' ->
        flush_lit ();
        let _, t = next_arg () in
        push (Fhex t)
      | 'c' ->
        flush_lit ();
        let _, t = next_arg () in
        push (Fchar t)
      | 's' ->
        flush_lit ();
        let _, t = next_arg () in
        push (Fstr t)
      | 'f' ->
        flush_lit ();
        let _, t = next_arg () in
        push (Ffloat t)
      | 'p' ->
        flush_lit ();
        let _, t = next_arg () in
        push (Fptr t)
      | 'l' ->
        (* %ld, validated by the type checker *)
        flush_lit ();
        let _, t = next_arg () in
        push (Flong t);
        incr i
      | c -> invalid_arg (Printf.sprintf "Lower: bad format %%%c" c));
      i := !i + 2
    end
    else begin
      Buffer.add_char buf fmt.[!i];
      incr i
    end
  done;
  flush_lit ();
  List.rev !items

(* --- functions and programs --- *)

let lower_func (lowering : Policy.lowering) globals (f : Tast.tfunc) : ifunc =
  let env =
    {
      lowering;
      rev_code = [];
      nregs = List.length f.Tast.tparams;
      nlabels = 0;
      storage = Hashtbl.create 16;
      slots = [];
      nslots = 0;
      loop_stack = [];
      globals;
      rev_lines = [];
      cur_line = 0;
    }
  in
  let taken = taken_block [] f.Tast.tbody in
  let promote = lowering.Policy.lw_promote_scalars in
  let assign_storage name ty =
    let scalar = match ty with Ast.Tarr _ -> false | _ -> true in
    if scalar && promote && not (List.mem name taken) then
      Hashtbl.replace env.storage name (Streg (fresh_reg env))
    else begin
      let idx = add_slot env name (Ast.sizeof ty) in
      Hashtbl.replace env.storage name (Stslot idx)
    end
  in
  (* parameters: values arrive in registers 0..n-1, then move to storage *)
  List.iteri
    (fun i (ty, name) ->
      assign_storage name ty;
      match Hashtbl.find env.storage name with
      | Streg r -> emit env (Imov (r, Reg i))
      | Stslot idx ->
        let a = fresh_reg env in
        emit env (Ilea (a, Sslot idx));
        emit env (Istore (Reg a, Reg i)))
    f.Tast.tparams;
  (* locals, in declaration order *)
  let local_decls = List.rev (decls_block [] f.Tast.tbody) in
  List.iter (fun (name, ty) -> assign_storage name ty) local_decls;
  lower_block env f.Tast.tbody;
  (* implicit function epilogue *)
  (match f.Tast.tfret with
  | Ast.Tvoid -> emit env (Iret None)
  | _ when f.Tast.tfname = "main" ->
    (* C semantics: falling off main returns 0 *)
    emit env (Iret (Some (ImmI 0L)))
  | _ ->
    (* falling off a non-void function: the returned value is whatever an
       unwritten register holds -- deliberate UB modeling *)
    let r = fresh_reg env in
    emit env (Iret (Some (Reg r))));
  (* slots stay in declaration index order here: [Sslot i] indexes this
     array. Whether the VM lays index 0 at the low or high end of the frame
     is the layout policy ([slots_reversed]). *)
  let slot_arr = Array.of_list (List.rev env.slots) in
  {
    name = f.Tast.tfname;
    nparams = List.length f.Tast.tparams;
    nregs = env.nregs;
    slots = slot_arr;
    code = Array.of_list (List.rev env.rev_code);
    code_lines = Array.of_list (List.rev env.rev_lines);
  }

(* A lowered program: a unit without the run-time policies and the name
   of the implementation it is for, which {!Pipeline} stamps per
   profile.  One lowering serves every profile with the same
   {!Policy.lowering}. *)
type lowered = { lfuncs : (string * ifunc) list; lglobals : iglobal list }

let lower_program (lowering : Policy.lowering) (tp : Tast.tprogram) : lowered =
  let globals = Hashtbl.create 16 in
  List.iter (fun g -> Hashtbl.replace globals g.Ast.gname g.Ast.gtyp) tp.Tast.tglobals;
  let lfuncs =
    List.map (fun f -> (f.Tast.tfname, lower_func lowering globals f)) tp.Tast.tfuncs
  in
  let lglobals =
    List.map
      (fun g ->
        { g_name = g.Ast.gname; g_size = Ast.sizeof g.Ast.gtyp; g_init = g.Ast.ginit })
      tp.Tast.tglobals
  in
  { lfuncs; lglobals }
