(* An Infer-style analyzer: compositional memory-safety reasoning with
   per-function summaries, in the spirit of bi-abduction. It is strong on
   pointer lifecycle bugs (null dereference, use-after-free, double free,
   leaks-as-dangling) across call boundaries, and intentionally does not
   reason about arithmetic at all -- integer overflows and div-by-zero are
   outside its scope, exactly like the real tool's C analysis in the
   paper's Table 3. *)

open Minic.Ast

let tool = "infer-like"

(* summary of a function's effect on pointer arguments and its return *)
type summary = {
  returns_fresh : bool;        (* returns a malloc'd pointer *)
  returns_maybe_null : bool;
  frees_params : int list;     (* indices of pointer params it frees *)
  derefs_params : int list;    (* indices it dereferences unconditionally *)
}

type pstate = Fresh | Checked | Freed | Null | MaybeNull | Unknown

type env = {
  mutable findings : Finding.t list;
  summaries : (string, summary) Hashtbl.t;
  mutable vars : (string * pstate) list;
  mutable reported : (int * string) list;
  params : string list;
}

let report env kind line fmt =
  Format.kasprintf
    (fun message ->
      if not (List.mem (line, message) env.reported) then begin
        env.reported <- (line, message) :: env.reported;
        env.findings <- Finding.make ~tool ~kind ~line message :: env.findings
      end)
    fmt

let get env v = Option.value ~default:Unknown (List.assoc_opt v env.vars)
let set env v s = env.vars <- (v, s) :: List.remove_assoc v env.vars

let param_index env v =
  let rec go i = function
    | [] -> None
    | p :: _ when p = v -> Some i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 env.params

(* effects accumulated for the current function's own summary *)
type own_effects = {
  mutable frees : int list;
  mutable derefs : int list;
  mutable ret_fresh : bool;
  mutable ret_maybe_null : bool;
}

let rec eval env eff (e : expr) : pstate =
  let line = e.eloc.line in
  match e.e with
  | EInt 0L -> Null
  | EInt _ | ELong _ | EFloat _ | ELine -> Unknown
  | EStr _ -> Checked
  | EVar v -> get env v
  | ECall ("malloc", args) ->
    List.iter (fun a -> ignore (eval env eff a)) args;
    MaybeNull
  | ECall ("free", [ { e = EVar v; _ } ]) ->
    (match get env v with
    | Freed -> report env Finding.Mem_error line "double free of '%s'" v
    | Null -> ()
    | _ ->
      (match param_index env v with
      | Some i when not (List.mem i eff.frees) -> eff.frees <- i :: eff.frees
      | _ -> ()));
    set env v Freed;
    Unknown
  | ECall (fname, args) ->
    let states = List.map (eval env eff) args in
    (match Hashtbl.find_opt env.summaries fname with
    | Some s ->
      List.iteri
        (fun i arg ->
          match arg.e with
          | EVar v when List.mem i s.frees_params ->
            if get env v = Freed then
              report env Finding.Mem_error line "double free of '%s' via %s" v fname
            else set env v Freed
          | EVar v when List.mem i s.derefs_params -> (
            match get env v with
            | Null -> report env Finding.Null_deref line "%s dereferences null '%s'" fname v
            | MaybeNull ->
              report env Finding.Null_deref line "%s may dereference null '%s'" fname v
            | Freed ->
              report env Finding.Mem_error line "%s uses '%s' after free" fname v
            | _ -> ())
          | _ -> ())
        args;
      ignore states;
      if s.returns_fresh then if s.returns_maybe_null then MaybeNull else Fresh
      else Unknown
    | None -> Unknown)
  | EDeref p | EIndex (p, _) ->
    (match e.e with
    | EIndex (_, idx) -> ignore (eval env eff idx)
    | _ -> ());
    (match p.e with
    | EVar v -> (
      (match param_index env v with
      | Some i when not (List.mem i eff.derefs) -> eff.derefs <- i :: eff.derefs
      | _ -> ());
      match get env v with
      | Null -> report env Finding.Null_deref line "null dereference of '%s'" v
      | MaybeNull ->
        report env Finding.Null_deref line "'%s' may be null here" v
      | Freed -> report env Finding.Mem_error line "use of '%s' after free" v
      | Fresh | Checked | Unknown -> ())
    | _ -> ignore (eval env eff p));
    Unknown
  | EAddr a ->
    (match a.e with EVar _ -> () | _ -> ignore (eval env eff a));
    Checked
  | EAssign (l, r) ->
    let sr = eval env eff r in
    (match l.e with
    | EVar v -> set env v sr
    | EDeref _ | EIndex _ -> ignore (eval env eff l)
    | _ -> ());
    sr
  | ECast (_, a) -> eval env eff a
  | EUnop (_, a) ->
    ignore (eval env eff a);
    Unknown
  | EBinop ((Land | Lor), a, b) ->
    ignore (eval env eff a);
    ignore (eval env eff b);
    Unknown
  | EBinop (_, a, b) ->
    let sa = eval env eff a in
    ignore (eval env eff b);
    (* pointer arithmetic keeps the base's state *)
    (match a.e with EVar _ -> sa | _ -> Unknown)
  | ECond (c, t, f) ->
    ignore (eval env eff c);
    let st = eval env eff t in
    let sf = eval env eff f in
    if st = sf then st else Unknown

let refine_null env (c : expr) (truth : bool) =
  match (c.e, truth) with
  | EVar v, true -> if get env v = MaybeNull then set env v Checked
  | EVar v, false -> if get env v = MaybeNull then set env v Null
  | EUnop (Lnot, { e = EVar v; _ }), true -> if get env v = MaybeNull then set env v Null
  | EUnop (Lnot, { e = EVar v; _ }), false ->
    if get env v = MaybeNull then set env v Checked
  | EBinop (Ne, { e = EVar v; _ }, { e = EInt 0L; _ }), true
  | EBinop (Eq, { e = EVar v; _ }, { e = EInt 0L; _ }), false ->
    if get env v = MaybeNull then set env v Checked
  | EBinop (Eq, { e = EVar v; _ }, { e = EInt 0L; _ }), true
  | EBinop (Ne, { e = EVar v; _ }, { e = EInt 0L; _ }), false ->
    if get env v = MaybeNull then set env v Null
  | EBinop (Eq, { e = EVar v; _ }, { e = ECast (_, { e = EInt 0L; _ }); _ }), true
  | EBinop (Ne, { e = EVar v; _ }, { e = ECast (_, { e = EInt 0L; _ }); _ }), false ->
    if get env v = MaybeNull then set env v Null
  | EBinop (Ne, { e = EVar v; _ }, { e = ECast (_, { e = EInt 0L; _ }); _ }), true
  | EBinop (Eq, { e = EVar v; _ }, { e = ECast (_, { e = EInt 0L; _ }); _ }), false ->
    if get env v = MaybeNull then set env v Checked
  | _ -> ()

let join a b =
  let names = List.sort_uniq compare (List.map fst a @ List.map fst b) in
  List.map
    (fun n ->
      let sa = Option.value ~default:Unknown (List.assoc_opt n a) in
      let sb = Option.value ~default:Unknown (List.assoc_opt n b) in
      let s =
        match (sa, sb) with
        | x, y when x = y -> x
        | Freed, _ | _, Freed -> Freed
        | Null, _ | _, Null -> MaybeNull
        | MaybeNull, _ | _, MaybeNull -> MaybeNull
        | _ -> Unknown
      in
      (n, s))
    names

let rec exec env eff (s : stmt) =
  match s.s with
  | SExpr e -> ignore (eval env eff e)
  | SDecl d -> (
    match d.dinit with
    | Some e -> set env d.dname (eval env eff e)
    | None -> set env d.dname Unknown)
  | SIf (c, t, f) ->
    ignore (eval env eff c);
    let snapshot = env.vars in
    refine_null env c true;
    List.iter (exec env eff) t;
    let after_then = env.vars in
    env.vars <- snapshot;
    refine_null env c false;
    List.iter (exec env eff) f;
    env.vars <- join after_then env.vars
  | SWhile (c, b) ->
    ignore (eval env eff c);
    let snapshot = env.vars in
    refine_null env c true;
    List.iter (exec env eff) b;
    env.vars <- join snapshot env.vars
  | SReturn (Some e) ->
    let se = eval env eff e in
    (match se with
    | Fresh -> eff.ret_fresh <- true
    | MaybeNull ->
      eff.ret_fresh <- true;
      eff.ret_maybe_null <- true
    | _ -> ())
  | SReturn None | SBreak | SContinue -> ()
  | SPrint (_, args) -> List.iter (fun a -> ignore (eval env eff a)) args
  | SBlock b -> List.iter (exec env eff) b

let analyze_function summaries (f : func) : Finding.t list * summary =
  let env =
    {
      findings = [];
      summaries;
      vars = List.map (fun (_, n) -> (n, Unknown)) f.params;
      reported = [];
      params = List.map snd f.params;
    }
  in
  let eff = { frees = []; derefs = []; ret_fresh = false; ret_maybe_null = false } in
  List.iter (exec env eff) f.body;
  ( List.rev env.findings,
    {
      returns_fresh = eff.ret_fresh;
      returns_maybe_null = eff.ret_maybe_null;
      frees_params = eff.frees;
      derefs_params = eff.derefs;
    } )

(* two passes so callees analyzed later still contribute summaries *)
let check (p : program) : Finding.t list =
  let summaries = Hashtbl.create 16 in
  List.iter
    (fun f ->
      let _, s = analyze_function summaries f in
      Hashtbl.replace summaries f.fname s)
    p.funcs;
  List.concat_map
    (fun f ->
      let findings, _ = analyze_function summaries f in
      findings)
    p.funcs
