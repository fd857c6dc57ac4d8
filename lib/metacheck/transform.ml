(* Metamorphic transformations over the typed AST (the UBfuzz recipe).

   Two families:

   - {!preserving} rewrites keep every undefined behaviour of the input
     program intact: a checker report (or an oracle divergence class)
     that changes across such a twin exposes instability in the checker,
     not in the program.  Each rewrite is deliberately conservative —
     the applicability predicates below are the soundness argument (see
     DESIGN.md §11), and anything that cannot be argued is skipped.

   - {!eliminating} rewrites discharge one UB class at every site they
     can prove pure enough to rewrite: guards before divisions,
     saturating arithmetic, zero-initialization, index clamping.  A
     report of the discharged class that survives the twin is a false
     positive of the reporting tool.

   Every twin is a [Tast.tprogram]; callers erase and re-typecheck it
   ({!Tast.erase_program}), which must succeed by construction. *)

open Minic
open Minic.Tast

type twin = {
  tw_rule : string;
  tw_line : int; (* source line of the rewritten site *)
  tw_prog : tprogram;
}

type elim = {
  el_rule : string;
  el_kinds : Staticcheck.Finding.kind list; (* the classes discharged *)
  el_lines : int list; (* lines of the rewritten sites *)
  el_complete : bool; (* no site of the class was left unrewritten *)
  el_prog : tprogram;
}

(* --- purity predicates --- *)

(* A "total read" evaluates without calls, memory access, assignment or
   [__LINE__]: constants, variable reads and operators only.  Such an
   expression can be duplicated (its only side effects are the traps /
   sanitizer reports of its own operations, which fire identically at
   the first evaluation). *)
let rec total_read (e : texpr) : bool =
  match e.te with
  | TConstI _ | TConstF _ | TVar _ -> true
  | TUnop (_, a) | TCast (_, a) -> total_read a
  | TBinop (_, a, b) -> total_read a && total_read b
  | TCond (c, t, f) -> total_read c && total_read t && total_read f
  | TStr _ | TLine | TCall _ | TIndex _ | TDeref _ | TAddr _ | TAssign _
  | TDecay _ ->
    false

(* Stricter: total and additionally free of any operation that can trap,
   fire a sanitizer check, or branch (UBSan-checked signed arithmetic,
   division, shifts, short-circuit evaluation, float->int casts).  Such
   an expression can be *reordered* across another statement without
   perturbing which report fires first. *)
let rec inert_read (e : texpr) : bool =
  match e.te with
  | TConstI _ | TConstF _ | TVar _ -> true
  | TUnop ((Ast.Lnot | Ast.Bnot), a) -> inert_read a
  | TUnop (Ast.Neg, a) -> a.tty = Ast.Tdouble && inert_read a
  | TBinop
      ( ( Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne | Ast.Band
        | Ast.Bor | Ast.Bxor ),
        a,
        b ) ->
    inert_read a && inert_read b
  | TBinop
      ( ( Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod | Ast.Shl | Ast.Shr
        | Ast.Land | Ast.Lor ),
        _,
        _ ) ->
    false
  | TCast (_, a) -> a.tty <> Ast.Tdouble && inert_read a
  | TCond _ | TStr _ | TLine | TCall _ | TIndex _ | TDeref _ | TAddr _
  | TAssign _ | TDecay _ ->
    false

let rec add_vars acc (e : texpr) =
  match e.te with
  | TVar (_, n) -> n :: acc
  | TConstI _ | TConstF _ | TStr _ | TLine -> acc
  | TUnop (_, a) | TCast (_, a) | TDecay a | TDeref a | TAddr a -> add_vars acc a
  | TBinop (_, a, b) | TIndex (a, b) | TAssign (a, b) ->
    add_vars (add_vars acc a) b
  | TCall (_, args) -> List.fold_left add_vars acc args
  | TCond (a, b, c) -> add_vars (add_vars (add_vars acc a) b) c

let vars_of e = add_vars [] e

let rec expr_size (e : texpr) : int =
  match e.te with
  | TConstI _ | TConstF _ | TStr _ | TVar _ | TLine -> 1
  | TUnop (_, a) | TCast (_, a) | TDecay a | TDeref a | TAddr a ->
    1 + expr_size a
  | TBinop (_, a, b) | TIndex (a, b) | TAssign (a, b) ->
    1 + expr_size a + expr_size b
  | TCall (_, args) -> List.fold_left (fun n a -> n + expr_size a) 1 args
  | TCond (a, b, c) -> 1 + expr_size a + expr_size b + expr_size c

let int_ty = function Ast.Tint | Ast.Tlong -> true | _ -> false

(* --- generic k-th site rewriters --- *)

(* Rewrite the [k]-th (preorder) statement satisfying [select]; the
   replacement does not get re-traversed.  Returns the site's source
   line and the rewritten program, or [None] when fewer than [k+1]
   sites exist. *)
let rewrite_nth_stmt (tp : tprogram) ~(select : tstmt -> bool)
    ~(rw : tstmt -> tstmt list) (k : int) : (int * tprogram) option =
  let count = ref (-1) in
  let hit = ref None in
  let m =
    {
      default_mapper with
      m_stmt =
        (fun m s ->
          if !hit = None && select s then begin
            incr count;
            if !count = k then begin
              hit := Some s.tsloc.Ast.line;
              rw s
            end
            else default_stmt m s
          end
          else default_stmt m s);
    }
  in
  let tp' = map_program m tp in
  Option.map (fun line -> (line, tp')) !hit

(* Expression variant: [probe] returns the rewritten node when the
   expression is a site. *)
let rewrite_nth_expr (tp : tprogram) ~(probe : texpr -> texpr option) (k : int)
    : (int * tprogram) option =
  let count = ref (-1) in
  let hit = ref None in
  let m =
    {
      default_mapper with
      m_expr =
        (fun m e ->
          if !hit = None then
            match probe e with
            | Some e' ->
              incr count;
              if !count = k then begin
                hit := Some e.tloc.Ast.line;
                e'
              end
              else default_expr m e
            | None -> default_expr m e
          else default_expr m e);
    }
  in
  let tp' = map_program m tp in
  Option.map (fun line -> (line, tp')) !hit

(* --- UB-preserving rewrites --- *)

(* dead-branch: wrap any non-declaration statement in [if (1) { s }].
   The branch is always taken, the condition is a constant (no trap, no
   taint), and declarations are excluded so no scope shrinks. *)
let dead_branch tp k =
  rewrite_nth_stmt tp
    ~select:(fun s -> match s.ts with TSDecl _ -> false | _ -> true)
    ~rw:(fun s ->
      let one = { te = TConstI 1L; tty = Ast.Tint; tloc = s.tsloc } in
      [ { ts = TSIf (one, [ s ], []); tsloc = s.tsloc } ])
    k

(* stmt-reorder: swap two adjacent assignments [x = r1; y = r2] when the
   pair is provably order-independent even under UB: distinct targets,
   r1 does not read y, r2 does not read x, r1 is a total read (its traps
   and reports fire identically at its single evaluation in either
   order) and r2 is inert (it cannot trap, report or branch at all, so
   moving it earlier is invisible). *)
let reorder tp k =
  let count = ref (-1) in
  let hit = ref None in
  let is_site s1 s2 =
    match (s1.ts, s2.ts) with
    | ( TSExpr { te = TAssign ({ te = TVar (_, x); _ }, r1); _ },
        TSExpr { te = TAssign ({ te = TVar (_, y); _ }, r2); _ } ) ->
      x <> y && total_read r1 && inert_read r2
      && (not (List.mem y (vars_of r1)))
      && not (List.mem x (vars_of r2))
    | _ -> false
  in
  let m =
    {
      default_mapper with
      m_block =
        (fun m b ->
          let b = default_block m b in
          let rec walk acc = function
            | s1 :: s2 :: rest when !hit = None && is_site s1 s2 ->
              incr count;
              if !count = k then begin
                hit := Some s1.tsloc.Ast.line;
                List.rev_append acc (s2 :: s1 :: rest)
              end
              else walk (s1 :: acc) (s2 :: rest)
            | s :: rest -> walk (s :: acc) rest
            | [] -> List.rev acc
          in
          walk [] b);
    }
  in
  let tp' = map_program m tp in
  Option.map (fun line -> (line, tp')) !hit

(* loop-peel: [while (c) b] becomes [if (c) b; while (c) b].  Sound when
   the condition is a total read (the one extra evaluation on the
   non-entered path cannot have effects beyond those of its first normal
   evaluation) and the body declares nothing (no frame-slot duplication,
   which would perturb the stack layout uninitialized reads observe) and
   contains no break/continue at its own nesting level. *)
let rec has_decl b =
  List.exists
    (fun s ->
      match s.ts with
      | TSDecl _ -> true
      | TSIf (_, a, b') -> has_decl a || has_decl b'
      | TSWhile (_, b') -> has_decl b'
      | TSBlock b' -> has_decl b'
      | TSExpr _ | TSReturn _ | TSBreak | TSContinue | TSPrint _ -> false)
    b

let rec has_escape b =
  List.exists
    (fun s ->
      match s.ts with
      | TSBreak | TSContinue -> true
      | TSIf (_, a, b') -> has_escape a || has_escape b'
      | TSBlock b' -> has_escape b'
      | TSWhile _ -> false (* break/continue bind to the inner loop *)
      | TSExpr _ | TSDecl _ | TSReturn _ | TSPrint _ -> false)
    b

let peel tp k =
  rewrite_nth_stmt tp
    ~select:(fun s ->
      match s.ts with
      | TSWhile (c, b) ->
        total_read c && (not (has_decl b)) && not (has_escape b)
      | _ -> false)
    ~rw:(fun s ->
      match s.ts with
      | TSWhile (c, b) ->
        [ { ts = TSIf (c, b, []); tsloc = s.tsloc }; s ]
      | _ -> assert false)
    k

(* arith-identity: [e] becomes [e | 0] at pattern-relevant integer
   positions (divisors, indices, assignment right-hand sides).  Bitwise
   or with zero is the identity on every bit pattern, lowers to an
   unchecked wrapping operation (never UBSan-checked), and propagates
   taint unchanged — but it breaks the syntactic shapes brittle
   analyzers match on. *)
let identity tp k =
  let or_zero (x : texpr) : texpr =
    let zero = { te = TConstI 0L; tty = x.tty; tloc = x.tloc } in
    { te = TBinop (Ast.Bor, x, zero); tty = x.tty; tloc = x.tloc }
  in
  let probe e =
    match e.te with
    | TBinop (((Ast.Div | Ast.Mod) as op), a, b) when int_ty e.tty ->
      Some { e with te = TBinop (op, a, or_zero b) }
    | TIndex (p, i) when int_ty i.tty ->
      Some { e with te = TIndex (p, or_zero i) }
    | TAssign (l, r) when int_ty r.tty ->
      Some { e with te = TAssign (l, or_zero r) }
    | _ -> None
  in
  rewrite_nth_expr tp ~probe k

(* call-outline: [lv = rhs] with a total-read rhs becomes
   [lv = mc_out_k(v1, ..., vn)] where the fresh function returns rhs
   with its free locals passed by value.  The rhs's operations (and
   their traps/reports, which carry no function names) execute
   unchanged inside the callee; the caller's frame layout is untouched
   because callee frames are pushed beyond it. *)
let fresh_fname (tp : tprogram) : string =
  let taken n =
    Ast.is_builtin n || List.exists (fun f -> f.tfname = n) tp.tfuncs
  in
  let rec go i =
    let n = Printf.sprintf "mc_out_%d" i in
    if taken n then go (i + 1) else n
  in
  go 1

let rec param_vars acc (e : texpr) =
  match e.te with
  | TVar (Vlocal, n) -> if List.mem_assoc n acc then acc else acc @ [ (n, e.tty) ]
  | TVar (Vglobal, _) | TConstI _ | TConstF _ | TStr _ | TLine -> acc
  | TUnop (_, a) | TCast (_, a) | TDecay a | TDeref a | TAddr a ->
    param_vars acc a
  | TBinop (_, a, b) | TIndex (a, b) | TAssign (a, b) ->
    param_vars (param_vars acc a) b
  | TCall (_, args) -> List.fold_left param_vars acc args
  | TCond (a, b, c) -> param_vars (param_vars (param_vars acc a) b) c

let outline tp k =
  let name = fresh_fname tp in
  let newfn = ref None in
  let select s =
    match s.ts with
    | TSExpr { te = TAssign (_, rhs); _ } -> total_read rhs
    | _ -> false
  in
  let rw s =
    match s.ts with
    | TSExpr ({ te = TAssign (lv, rhs); _ } as e) ->
      let ps = param_vars [] rhs in
      let fn =
        {
          tfname = name;
          tparams = List.map (fun (n, t) -> (t, n)) ps;
          tfret = rhs.tty;
          tbody = [ { ts = TSReturn (Some rhs); tsloc = s.tsloc } ];
        }
      in
      newfn := Some fn;
      let args =
        List.map
          (fun (n, t) -> { te = TVar (Vlocal, n); tty = t; tloc = rhs.tloc })
          ps
      in
      let call = { te = TCall (name, args); tty = rhs.tty; tloc = rhs.tloc } in
      [ { s with ts = TSExpr { e with te = TAssign (lv, call) } } ]
    | _ -> assert false
  in
  match rewrite_nth_stmt tp ~select ~rw k with
  | Some (line, tp') -> (
    match !newfn with
    | Some fn -> Some (line, { tp' with tfuncs = fn :: tp'.tfuncs })
    | None -> None)
  | None -> None

let preserving ?(limit_per_rule = 4) (tp : tprogram) : twin list =
  let take rule gen =
    let rec go k acc =
      if k >= limit_per_rule then List.rev acc
      else
        match gen k with
        | Some (line, p) ->
          go (k + 1) ({ tw_rule = rule; tw_line = line; tw_prog = p } :: acc)
        | None -> List.rev acc
    in
    go 0 []
  in
  take "dead-branch" (dead_branch tp)
  @ take "stmt-reorder" (reorder tp)
  @ take "loop-peel" (peel tp)
  @ take "arith-identity" (identity tp)
  @ take "call-outline" (outline tp)

(* --- UB-eliminating rewrites --- *)

(* guard-div: every integer [a / b] (and [%]) with total-read operands
   becomes [(b != 0 && !(a == MIN && b == -1)) ? a / b : 0].  The
   division can no longer divide by zero or overflow, so any Div_zero
   report that survives is a false positive. *)
let rec has_divmod (e : texpr) : bool =
  match e.te with
  | TBinop ((Ast.Div | Ast.Mod), _, _) -> true
  | TConstI _ | TConstF _ | TStr _ | TVar _ | TLine -> false
  | TUnop (_, a) | TCast (_, a) | TDecay a | TDeref a | TAddr a -> has_divmod a
  | TBinop (_, a, b) | TIndex (a, b) | TAssign (a, b) ->
    has_divmod a || has_divmod b
  | TCall (_, args) -> List.exists has_divmod args
  | TCond (a, b, c) -> has_divmod a || has_divmod b || has_divmod c

let guard_div (tp : tprogram) : elim option =
  let lines = ref [] in
  let incomplete = ref false in
  let m =
    {
      default_mapper with
      m_expr =
        (fun m e ->
          let e = default_expr m e in
          match e.te with
          | TBinop (((Ast.Div | Ast.Mod) as op), a, b) when int_ty e.tty ->
            if
              total_read a && total_read b
              && (not (has_divmod a))
              && not (has_divmod b)
            then begin
              lines := e.tloc.Ast.line :: !lines;
              let ty = e.tty in
              let loc = e.tloc in
              let ci v = { te = TConstI v; tty = ty; tloc = loc } in
              let bi o x y =
                { te = TBinop (o, x, y); tty = Ast.Tint; tloc = loc }
              in
              let min_v =
                if ty = Ast.Tlong then Int64.min_int else -2147483648L
              in
              let nonzero = bi Ast.Ne b (ci 0L) in
              let overflowing =
                bi Ast.Land (bi Ast.Eq a (ci min_v)) (bi Ast.Eq b (ci (-1L)))
              in
              let ok =
                bi Ast.Land nonzero
                  {
                    te = TUnop (Ast.Lnot, overflowing);
                    tty = Ast.Tint;
                    tloc = loc;
                  }
              in
              {
                e with
                te = TCond (ok, { e with te = TBinop (op, a, b) }, ci 0L);
              }
            end
            else begin
              incomplete := true;
              e
            end
          | _ -> e);
    }
  in
  let tp' = map_program m tp in
  if !lines = [] then None
  else
    Some
      {
        el_rule = "guard-div";
        el_kinds = [ Staticcheck.Finding.Div_zero ];
        el_lines = List.sort_uniq compare !lines;
        el_complete = not !incomplete;
        el_prog = tp';
      }

(* saturate-arith: 32-bit [a + b] / [-] / [*] / [-a] is computed at 64
   bits (where the 32-bit operands cannot overflow) and clamped back to
   the int range.  Signed-overflow UB is gone; an Int_error report that
   survives is a false positive. *)
let saturate (tp : tprogram) : elim option =
  let lines = ref [] in
  let incomplete = ref false in
  let clamp32 (loc : Ast.loc) (w : texpr) : texpr =
    let cl v = { te = TConstI v; tty = Ast.Tlong; tloc = loc } in
    let bi o x y = { te = TBinop (o, x, y); tty = Ast.Tint; tloc = loc } in
    let cond c t f = { te = TCond (c, t, f); tty = Ast.Tlong; tloc = loc } in
    let clamped =
      cond
        (bi Ast.Gt w (cl 2147483647L))
        (cl 2147483647L)
        (cond (bi Ast.Lt w (cl (-2147483648L))) (cl (-2147483648L)) w)
    in
    { te = TCast (Ast.Tint, clamped); tty = Ast.Tint; tloc = loc }
  in
  let wide (x : texpr) : texpr =
    { te = TCast (Ast.Tlong, x); tty = Ast.Tlong; tloc = x.tloc }
  in
  let m =
    {
      default_mapper with
      m_expr =
        (fun m e ->
          let e = default_expr m e in
          match e.te with
          | TBinop (((Ast.Add | Ast.Sub | Ast.Mul) as op), a, b)
            when e.tty = Ast.Tint ->
            if total_read a && total_read b && expr_size e <= 96 then begin
              lines := e.tloc.Ast.line :: !lines;
              let w =
                { te = TBinop (op, wide a, wide b); tty = Ast.Tlong; tloc = e.tloc }
              in
              clamp32 e.tloc w
            end
            else begin
              incomplete := true;
              e
            end
          | TUnop (Ast.Neg, a) when e.tty = Ast.Tint ->
            if total_read a && expr_size a <= 96 then begin
              lines := e.tloc.Ast.line :: !lines;
              let w =
                { te = TUnop (Ast.Neg, wide a); tty = Ast.Tlong; tloc = e.tloc }
              in
              clamp32 e.tloc w
            end
            else begin
              incomplete := true;
              e
            end
          | (TBinop ((Ast.Add | Ast.Sub | Ast.Mul), _, _) | TUnop (Ast.Neg, _))
            when e.tty = Ast.Tlong ->
            (* no wider type to saturate through *)
            incomplete := true;
            e
          | _ -> e);
    }
  in
  let tp' = map_program m tp in
  if !lines = [] then None
  else
    Some
      {
        el_rule = "saturate-arith";
        el_kinds = [ Staticcheck.Finding.Int_error ];
        el_lines = List.sort_uniq compare !lines;
        el_complete = not !incomplete;
        el_prog = tp';
      }

(* init-decl: scalar declarations without initializer get an explicit
   zero.  Uninitialized-use UB on those variables is gone; a surviving
   Uninit report is a false positive.  Pointers and arrays are left
   alone (a null init would merely trade one UB class for another). *)
let init_decl (tp : tprogram) : elim option =
  let lines = ref [] in
  let incomplete = ref false in
  let m =
    {
      default_mapper with
      m_stmt =
        (fun m s ->
          match s.ts with
          | TSDecl (t, n, None) -> (
            match t with
            | Ast.Tint | Ast.Tlong ->
              lines := s.tsloc.Ast.line :: !lines;
              [
                {
                  s with
                  ts = TSDecl (t, n, Some { te = TConstI 0L; tty = t; tloc = s.tsloc });
                };
              ]
            | Ast.Tdouble ->
              lines := s.tsloc.Ast.line :: !lines;
              [
                {
                  s with
                  ts =
                    TSDecl (t, n, Some { te = TConstF 0.; tty = t; tloc = s.tsloc });
                };
              ]
            | Ast.Tptr _ | Ast.Tarr _ | Ast.Tvoid ->
              incomplete := true;
              default_stmt m s)
          | _ -> default_stmt m s);
    }
  in
  let tp' = map_program m tp in
  if !lines = [] then None
  else
    Some
      {
        el_rule = "init-decl";
        el_kinds = [ Staticcheck.Finding.Uninit ];
        el_lines = List.sort_uniq compare !lines;
        el_complete = not !incomplete;
        el_prog = tp';
      }

(* clamp-index: [arr[i]] on a declared array of known size clamps the
   index into bounds.  Out-of-bounds UB at those sites is gone; heap
   and pointer accesses (unknown bounds) mark the pass incomplete. *)
let clamp_index (tp : tprogram) : elim option =
  let lines = ref [] in
  let incomplete = ref false in
  let m =
    {
      default_mapper with
      m_expr =
        (fun m e ->
          let e = default_expr m e in
          match e.te with
          | TIndex (base, idx) -> (
            let arr_size =
              match base.te with
              | TDecay inner -> (
                match inner.tty with
                | Ast.Tarr (_, n) when n > 0 -> Some n
                | _ -> None)
              | _ -> None
            in
            match arr_size with
            | Some n when int_ty idx.tty && total_read idx && expr_size idx <= 96
              ->
              lines := e.tloc.Ast.line :: !lines;
              let ci v =
                { te = TConstI (Int64.of_int v); tty = idx.tty; tloc = idx.tloc }
              in
              let bi o x y =
                { te = TBinop (o, x, y); tty = Ast.Tint; tloc = idx.tloc }
              in
              let cond c t f =
                { te = TCond (c, t, f); tty = idx.tty; tloc = idx.tloc }
              in
              let clamped =
                cond (bi Ast.Lt idx (ci 0)) (ci 0)
                  (cond (bi Ast.Ge idx (ci n)) (ci (n - 1)) idx)
              in
              { e with te = TIndex (base, clamped) }
            | _ ->
              incomplete := true;
              e)
          | TDeref _ ->
            (* a raw dereference is an unbounded access we cannot clamp *)
            incomplete := true;
            e
          | _ -> e);
    }
  in
  let tp' = map_program m tp in
  if !lines = [] then None
  else
    Some
      {
        el_rule = "clamp-index";
        el_kinds = [ Staticcheck.Finding.Mem_error ];
        el_lines = List.sort_uniq compare !lines;
        el_complete = not !incomplete;
        el_prog = tp';
      }

let eliminating (tp : tprogram) : elim list =
  List.filter_map
    (fun f -> f tp)
    [ guard_div; saturate; init_decl; clamp_index ]
