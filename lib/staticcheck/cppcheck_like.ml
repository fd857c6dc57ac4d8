(* A Cppcheck-style analyzer: cheap, purely syntactic, path-insensitive
   pattern matching over the AST. High precision on the trivial shapes it
   knows, blind to anything requiring data flow, and prone to false
   positives when a guard it cannot see makes the flagged code safe. *)

open Minic.Ast

let tool = "cppcheck-like"

type env = {
  mutable findings : Finding.t list;
  (* statically known array sizes (globals + locals in scope) *)
  arrays : (string, int) Hashtbl.t;
  (* variables whose most recent syntactic assignment is the literal 0 *)
  zeros : (string, unit) Hashtbl.t;
  (* locals declared without initializer and not yet syntactically assigned *)
  uninit : (string, unit) Hashtbl.t;
  (* pointers freed earlier in the same linear statement sequence *)
  freed : (string, unit) Hashtbl.t;
}

let report env kind line fmt =
  Format.kasprintf
    (fun message -> env.findings <- Finding.make ~tool ~kind ~line message :: env.findings)
    fmt

let rec const_of (e : expr) : int64 option =
  match e.e with
  | EInt v | ELong v -> Some v
  | EUnop (Neg, a) -> Option.map Int64.neg (const_of a)
  | EBinop (Add, a, b) -> map2 Int64.add a b
  | EBinop (Sub, a, b) -> map2 Int64.sub a b
  | EBinop (Mul, a, b) -> map2 Int64.mul a b
  | _ -> None

and map2 f a b =
  match (const_of a, const_of b) with
  | Some x, Some y -> Some (f x y)
  | _ -> None

let rec scan_expr env (e : expr) =
  let line = e.eloc.line in
  (match e.e with
  | EIndex ({ e = EVar arr; _ }, idx) ->
    if Hashtbl.mem env.freed arr then
      report env Finding.Mem_error line "access through freed pointer '%s'" arr
    else (
      match (Hashtbl.find_opt env.arrays arr, const_of idx) with
      | Some size, Some i when i >= Int64.of_int size ->
        report env Finding.Mem_error line "array '%s' index %Ld out of bounds [0,%d)"
          arr i size
      | Some _, Some i when i < 0L ->
        report env Finding.Mem_error line "array '%s' negative index %Ld" arr i
      | _ -> ())
  | EBinop ((Div | Mod), _, rhs) -> (
    match const_of rhs with
    | Some 0L -> report env Finding.Div_zero line "division by constant zero"
    | Some _ -> ()
    | None -> (
      match rhs.e with
      | EVar v when Hashtbl.mem env.zeros v ->
        report env Finding.Div_zero line "division by '%s' which is zero here" v
      | _ -> ()))
  | EDeref { e = EVar p; _ } when Hashtbl.mem env.zeros p ->
    report env Finding.Null_deref line "null pointer '%s' dereferenced" p
  | EDeref { e = EVar p; _ } when Hashtbl.mem env.freed p ->
    report env Finding.Mem_error line "dereference of freed pointer '%s'" p
  | ECall ("free", [ { e = EVar p; _ } ]) ->
    if Hashtbl.mem env.arrays p then
      report env Finding.Mem_error line "free of non-heap array '%s'" p
    else if Hashtbl.mem env.freed p then
      report env Finding.Mem_error line "double free of '%s'" p
    else Hashtbl.replace env.freed p ()
  | ECall ("free", [ { e = EAddr _; _ } ]) ->
    report env Finding.Mem_error line "free of address-of expression"
  | ECall ("memcpy", [ d; src; _ ]) ->
    let rec base (x : expr) =
      match x.e with
      | EVar v -> Some v
      | EBinop ((Add | Sub), a, _) -> base a
      | ECast (_, a) -> base a
      | _ -> None
    in
    (match (base d, base src) with
    | Some x, Some y when x = y ->
      report env Finding.Bad_call line "overlapping memcpy on '%s'" x
    | _ -> ())
  | ECall (_, cargs)
    when List.exists
           (fun (a : expr) ->
             match a.e with
             | ECast ((Tint | Tlong), { e = EAddr _; _ }) -> true
             | _ -> false)
           cargs ->
    report env Finding.Bad_call line "address passed as an integer argument"
  | EVar v when Hashtbl.mem env.uninit v ->
    report env Finding.Uninit line "variable '%s' may be used uninitialized" v
  | EBinop ((Shl | Shr), _, rhs) -> (
    match const_of rhs with
    | Some c when c < 0L || c >= 32L ->
      report env Finding.Ub_generic line "shift amount %Ld out of range" c
    | _ -> ())
  | _ -> ());
  (* recurse; assignment handling updates state after scanning the rhs *)
  match e.e with
  | EAssign ({ e = EVar v; _ }, rhs) ->
    scan_expr env rhs;
    Hashtbl.remove env.uninit v;
    Hashtbl.remove env.freed v;
    (match const_of rhs with
    | Some 0L -> Hashtbl.replace env.zeros v ()
    | _ -> Hashtbl.remove env.zeros v);
    (match rhs.e with
    | ECall ("malloc", _) -> Hashtbl.remove env.freed v
    | _ -> ())
  | EAssign (l, r) ->
    (* non-variable target: the checks on indexing/dereference apply to
       writes exactly as to reads *)
    scan_expr env l;
    scan_expr env r
  | EUnop (_, a) | ECast (_, a) -> scan_expr env a
  | EAddr { e = EVar v; _ } ->
    (* address-taken: assume initialized through the pointer from here on *)
    Hashtbl.remove env.uninit v
  | EAddr a -> scan_expr env a
  | EBinop (_, a, b) ->
    scan_expr env a;
    scan_expr env b
  | ECall (_, args) -> List.iter (scan_expr env) args
  | EIndex (a, i) ->
    scan_base env a;
    scan_expr env i
  | EDeref a -> scan_base env a
  | ECond (c, t, f) ->
    scan_expr env c;
    scan_expr env t;
    scan_expr env f
  | EInt _ | ELong _ | EFloat _ | EStr _ | EVar _ | ELine -> ()

(* a variable used as a base of indexing/deref is a use, but not an
   uninitialized-value read of the pointee *)
and scan_base env (e : expr) =
  match e.e with EVar _ -> () | _ -> scan_expr env e

let rec scan_stmt env (s : stmt) =
  match s.s with
  | SExpr e -> scan_expr env e
  | SDecl d ->
    (match d.dtyp with
    | Tarr (_, n) -> Hashtbl.replace env.arrays d.dname n
    | _ -> ());
    (match d.dinit with
    | Some e ->
      scan_expr env e;
      (match const_of e with
      | Some 0L -> Hashtbl.replace env.zeros d.dname ()
      | _ -> ())
    | None ->
      (match d.dtyp with
      | Tarr _ -> () (* arrays are usually filled element-wise; too noisy *)
      | _ -> if not d.dstatic then Hashtbl.replace env.uninit d.dname ()))
  | SIf (c, t, f) ->
    (* uses inside conditions and after branches are not flagged as
       uninitialized: a branch might have initialized the variable, and
       flagging the condition itself proved too noisy *)
    Hashtbl.reset env.uninit;
    scan_expr env c;
    List.iter (scan_stmt env) t;
    List.iter (scan_stmt env) f
  | SWhile (c, b) ->
    Hashtbl.reset env.uninit;
    scan_expr env c;
    List.iter (scan_stmt env) b
  | SReturn (Some e) -> scan_expr env e
  | SReturn None | SBreak | SContinue -> ()
  | SPrint (_, args) -> List.iter (scan_expr env) args
  | SBlock b -> List.iter (scan_stmt env) b

let check (p : program) : Finding.t list =
  let env =
    {
      findings = [];
      arrays = Hashtbl.create 16;
      zeros = Hashtbl.create 16;
      uninit = Hashtbl.create 16;
      freed = Hashtbl.create 16;
    }
  in
  List.iter
    (fun g ->
      match g.gtyp with
      | Tarr (_, n) -> Hashtbl.replace env.arrays g.gname n
      | _ -> ())
    p.globals;
  List.iter
    (fun f ->
      Hashtbl.reset env.zeros;
      Hashtbl.reset env.uninit;
      Hashtbl.reset env.freed;
      List.iter (scan_stmt env) f.body)
    p.funcs;
  List.rev env.findings
