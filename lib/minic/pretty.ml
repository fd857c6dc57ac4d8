(* Pretty-printer: renders an AST back to MiniC concrete syntax.

   Used to dump generated Juliet-style programs for inspection and by the
   parser round-trip property tests ([parse (print p)] preserves meaning).
   The layout also decides where a built program's nodes sit: [locate]
   gives them the locations of the printed text. *)

open Ast

let prec_of_binop = function
  | Mul | Div | Mod -> 9
  | Add | Sub -> 8
  | Shl | Shr -> 7
  | Lt | Le | Gt | Ge -> 6
  | Eq | Ne -> 5
  | Band -> 4
  | Bxor -> 3
  | Bor -> 2
  | Land -> 1
  | Lor -> 0

let binop_str = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%"
  | Shl -> "<<" | Shr -> ">>"
  | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="
  | Eq -> "==" | Ne -> "!="
  | Band -> "&" | Bor -> "|" | Bxor -> "^"
  | Land -> "&&" | Lor -> "||"

let unop_str = function Neg -> "-" | Lnot -> "!" | Bnot -> "~"

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\000' -> Buffer.add_string buf "\\0"
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Floats must re-lex: the lexer only accepts [-]digits.digits (no
   exponent, no inf/nan), so %.17g output like "2.5e-05" would not
   round-trip. Finite values that %.17g cannot render lexably fall back
   to a full decimal expansion (exact for every double, then trailing
   zeros are stripped); non-finite values print as constant expressions
   with the same value. *)
let float_is_lexable s =
  let n = String.length s in
  let ok = ref (n > 0) and dot = ref (-1) in
  String.iteri
    (fun i c ->
      match c with
      | '0' .. '9' -> ()
      | '-' when i = 0 -> ()
      | '.' when !dot < 0 -> dot := i
      | _ -> ok := false)
    s;
  !ok && !dot > 0 && !dot < n - 1 && (s.[0] <> '-' || !dot > 1)

let strip_float_zeros s =
  let n = String.length s in
  match String.index_opt s '.' with
  | None -> s
  | Some d ->
    let e = ref (n - 1) in
    while !e > d + 1 && s.[!e] = '0' do decr e done;
    String.sub s 0 (!e + 1)

let finite_float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.17g" f in
    if float_is_lexable s then s
    else strip_float_zeros (Printf.sprintf "%.1074f" f)

(* [ctx] is the precedence of the surrounding operator; parentheses are
   emitted when the child binds less tightly. Levels: 12 primary,
   11 postfix (indexing), 10 prefix (unary operators, casts, negative
   literals), 9..0 binary operators, assignment lowest. [ind] indents a
   continuation line (see [pp_args]). *)
let rec pp_expr_prec ind ctx ppf e =
  let pp_expr_prec = pp_expr_prec ind in
  let prec_wrap p body =
    if p < ctx then Format.fprintf ppf "(%t)" body else body ppf
  in
  match e.e with
  | EInt v ->
    prec_wrap (if v < 0L then 10 else 12) (fun ppf -> Format.fprintf ppf "%Ld" v)
  | ELong v ->
    prec_wrap (if v < 0L then 10 else 12) (fun ppf -> Format.fprintf ppf "%LdL" v)
  | EFloat f ->
    if Float.is_nan f then
      Format.pp_print_string ppf "(0.0 / 0.0)"
    else if f = Float.infinity then Format.pp_print_string ppf "(1.0 / 0.0)"
    else if f = Float.neg_infinity then
      Format.pp_print_string ppf "(-1.0 / 0.0)"
    else
      prec_wrap
        (if Float.sign_bit f then 10 else 12)
        (fun ppf -> Format.pp_print_string ppf (finite_float_repr f))
  | EStr s -> Format.fprintf ppf "\"%s\"" (escape_string s)
  | EVar v -> Format.pp_print_string ppf v
  | ELine -> Format.pp_print_string ppf "__LINE__"
  | EUnop (Neg, a) when starts_with_minus a || is_literal a ->
    (* "-" before an operand that renders with a leading "-" would lex
       as the "--" token, and before a literal would parse as a negative
       literal: force parentheses *)
    prec_wrap 10 (fun ppf -> Format.fprintf ppf "-(%a)" (pp_expr_prec 0) a)
  | EUnop (op, a) ->
    prec_wrap 10 (fun ppf ->
        Format.fprintf ppf "%s%a" (unop_str op) (pp_expr_prec 10) a)
  | EBinop (op, a, b) ->
    let p = prec_of_binop op in
    prec_wrap p (fun ppf ->
        Format.fprintf ppf "%a %s %a" (pp_expr_prec p) a (binop_str op)
          (pp_expr_prec (p + 1)) b)
  | ECall (f, args) -> Format.fprintf ppf "%s(%a)" f (pp_args ind ~comma:false) args
  | EIndex (a, i) ->
    (* postfix binds tighter than prefix: the base must render at
       postfix level, or indexing a dereference would print as
       "*p[i]", which re-parses with the index under the star *)
    prec_wrap 11 (fun ppf ->
        Format.fprintf ppf "%a[%a]" (pp_expr_prec 11) a (pp_expr_prec 0) i)
  | EDeref a ->
    prec_wrap 10 (fun ppf -> Format.fprintf ppf "*%a" (pp_expr_prec 10) a)
  | EAddr a ->
    prec_wrap 10 (fun ppf -> Format.fprintf ppf "&%a" (pp_expr_prec 10) a)
  | EAssign (l, r) ->
    let body ppf =
      Format.fprintf ppf "%a = %a" (pp_expr_prec 10) l (pp_expr_prec 0) r
    in
    if ctx > 0 then Format.fprintf ppf "(%t)" body else body ppf
  | ECast (t, a) ->
    prec_wrap 10 (fun ppf ->
        Format.fprintf ppf "(%a) %a" pp_typ t (pp_expr_prec 10) a)
  | ECond (c, t, f) ->
    Format.fprintf ppf "(%a ? %a : %a)" (pp_expr_prec 1) c (pp_expr_prec 0) t
      (pp_expr_prec 0) f

(* The arguments of a call or a print, each after a comma when [comma]
   (and always after the first). A [__LINE__] argument starts a new
   line, so the statement it sits in spans two lines and the token and
   statement readings of [__LINE__] (Table 5's LINE) differ in the text
   itself. *)
and pp_args ind ~comma ppf args =
  List.iteri
    (fun i a ->
      let sep = if comma || i > 0 then "," else "" in
      (match a.e with
      | ELine -> Format.fprintf ppf "%s\n%s" sep ind
      | _ -> if sep <> "" then Format.fprintf ppf "%s " sep);
      pp_expr_prec ind 0 ppf a)
    args

and is_literal e =
  match e.e with
  | EInt _ | ELong _ -> true
  | EFloat f -> Float.is_finite f
  | _ -> false

and starts_with_minus e =
  match e.e with
  | EUnop (Neg, _) -> true
  | EInt v | ELong v -> v < 0L
  | EFloat f -> f = Float.neg_infinity || (not (Float.is_nan f)) && Float.sign_bit f
  | _ -> false

let pp_expr ppf e = pp_expr_prec "    " 0 ppf e

let rec base_and_array = function
  | Tarr (t, n) ->
    let base, dims = base_and_array t in
    (base, n :: dims)
  | t -> (t, [])

let pp_decl_head ppf (t, name) =
  let base, dims = base_and_array t in
  Format.fprintf ppf "%a %s" pp_typ base name;
  List.iter (fun n -> Format.fprintf ppf "[%d]" n) dims

let rec pp_stmt indent ppf st =
  let pad = String.make indent ' ' in
  let ind = String.make (indent + 4) ' ' in
  let pp_expr = pp_expr_prec ind 0 in
  match st.s with
  | SExpr e -> Format.fprintf ppf "%s%a;" pad pp_expr e
  | SDecl d ->
    Format.fprintf ppf "%s%s%a" pad
      (if d.dstatic then "static " else "")
      pp_decl_head (d.dtyp, d.dname);
    (match d.dinit with
    | Some e -> Format.fprintf ppf " = %a;" pp_expr e
    | None -> Format.fprintf ppf ";")
  | SIf (c, t, []) ->
    Format.fprintf ppf "%sif (%a) {\n%a\n%s}" pad pp_expr c (pp_block (indent + 2)) t pad
  | SIf (c, t, f) ->
    Format.fprintf ppf "%sif (%a) {\n%a\n%s} else {\n%a\n%s}" pad pp_expr c
      (pp_block (indent + 2)) t pad (pp_block (indent + 2)) f pad
  | SWhile (c, b) ->
    Format.fprintf ppf "%swhile (%a) {\n%a\n%s}" pad pp_expr c (pp_block (indent + 2)) b pad
  | SReturn None -> Format.fprintf ppf "%sreturn;" pad
  | SReturn (Some e) -> Format.fprintf ppf "%sreturn %a;" pad pp_expr e
  | SBreak -> Format.fprintf ppf "%sbreak;" pad
  | SContinue -> Format.fprintf ppf "%scontinue;" pad
  | SPrint (fmt, []) -> Format.fprintf ppf "%sprint(\"%s\");" pad (escape_string fmt)
  | SPrint (fmt, args) ->
    Format.fprintf ppf "%sprint(\"%s\"%a);" pad (escape_string fmt)
      (pp_args ind ~comma:true) args
  | SBlock b -> Format.fprintf ppf "%s{\n%a\n%s}" pad (pp_block (indent + 2)) b pad

and pp_block indent ppf stmts =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "\n")
    (pp_stmt indent) ppf stmts

let pp_func ppf f =
  let pp_params ppf = function
    | [] -> Format.pp_print_string ppf "void"
    | ps ->
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
        (fun ppf (t, n) -> pp_decl_head ppf (t, n))
        ppf ps
  in
  Format.fprintf ppf "%a %s(%a) {\n%a\n}" pp_typ f.fret f.fname pp_params f.params
    (pp_block 2) f.body

let pp_global ppf g =
  pp_decl_head ppf (g.gtyp, g.gname);
  match g.ginit with
  | [] -> Format.fprintf ppf ";"
  | [ v ] -> Format.fprintf ppf " = %Ld;" v
  | vs ->
    Format.fprintf ppf " = {%s};" (String.concat ", " (List.map Int64.to_string vs))

let pp_program ppf p =
  List.iter (fun g -> Format.fprintf ppf "%a\n" pp_global g) p.globals;
  if p.globals <> [] then Format.pp_print_newline ppf ();
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "\n\n")
    pp_func ppf p.funcs

let program_to_string p = Format.asprintf "%a\n" pp_program p
let expr_to_string e = Format.asprintf "%a" pp_expr e

(* [locate p] is [p] with every node at the location {!Parser} gives it
   reading [program_to_string p]: a function at its header line, a
   statement at its first line, an expression at the line of its last
   token with its statement's first line as [stmt_line]. It walks the
   layout above without printing: a line ends after each global (and
   after the globals as a whole), at every brace that opens or closes a
   body, between statements and functions, in an empty body, and before
   a [__LINE__] argument.

   This is the one place a built program gets its lines, so the lines
   of a program are a function of its text alone. *)
let locate (p : program) : program =
  let line = ref 0 in
  (* [!line] is the line the text printed so far ends on; [at] is the
     location of the statement around an expression, shared by every
     expression that ends on the statement's first line *)
  let rec expr at e =
    let d =
      match e.e with
      | EInt _ | ELong _ | EFloat _ | EStr _ | EVar _ | ELine -> e.e
      | EUnop (op, a) -> EUnop (op, expr at a)
      | EBinop (op, a, b) ->
        let a = expr at a in
        EBinop (op, a, expr at b)
      | ECall (f, args) -> ECall (f, List.map (arg at) args)
      | EIndex (a, i) ->
        let a = expr at a in
        EIndex (a, expr at i)
      | EDeref a -> EDeref (expr at a)
      | EAddr a -> EAddr (expr at a)
      | EAssign (l, r) ->
        let l = expr at l in
        EAssign (l, expr at r)
      | ECast (t, a) -> ECast (t, expr at a)
      | ECond (c, t, f) ->
        let c = expr at c in
        let t = expr at t in
        ECond (c, t, expr at f)
    in
    let eloc = if !line = at.line then at else { line = !line; stmt_line = at.line } in
    { e = d; eloc }
  and arg at a =
    (match a.e with ELine -> incr line | _ -> ());
    expr at a
  and stmt st =
    incr line;
    let at = { line = !line; stmt_line = !line } in
    let d =
      match st.s with
      | SExpr e -> SExpr (expr at e)
      | SDecl d -> SDecl { d with dinit = Option.map (expr at) d.dinit }
      | SIf (c, t, f) ->
        let c = expr at c in
        let t = block t in
        SIf (c, t, match f with [] -> [] | _ -> block f)
      | SWhile (c, b) ->
        let c = expr at c in
        SWhile (c, block b)
      | SReturn e -> SReturn (Option.map (expr at) e)
      | SBreak | SContinue -> st.s
      | SPrint (fmt, args) -> SPrint (fmt, List.map (arg at) args)
      | SBlock b -> SBlock (block b)
    in
    { s = d; sloc = at }
  and block b =
    let b = match b with [] -> incr line; [] | _ -> List.map stmt b in
    incr line;
    (* the closing brace *)
    b
  in
  line := List.length p.globals + (match p.globals with [] -> 0 | _ -> 1);
  let func i f =
    if i > 0 then incr line;
    incr line;
    let header = { line = !line; stmt_line = !line } in
    { f with body = block f.body; floc = header }
  in
  { p with funcs = List.mapi func p.funcs }

(* Typed programs print through erasure: what you see is the MiniC
   source whose re-elaboration is the typed program (used to dump the
   metamorphic twins for inspection). *)
let pp_tprogram ppf tp = pp_program ppf (Tast.erase_program tp)
let tprogram_to_string tp = Format.asprintf "%a\n" pp_tprogram tp
