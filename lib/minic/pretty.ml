(* Pretty-printer: renders an AST back to MiniC concrete syntax.

   Used to dump generated Juliet-style programs for inspection and by the
   parser round-trip property tests ([parse (print p)] preserves meaning). *)

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
   literals), 9..0 binary operators, assignment lowest. *)
let rec pp_expr_prec ctx ppf e =
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
  | EUnop (Neg, a) when starts_with_minus a ->
    (* "-" before an operand that renders with a leading "-" would lex
       as the "--" token: force parentheses *)
    prec_wrap 10 (fun ppf -> Format.fprintf ppf "-(%a)" (pp_expr_prec 0) a)
  | EUnop (op, a) ->
    prec_wrap 10 (fun ppf ->
        Format.fprintf ppf "%s%a" (unop_str op) (pp_expr_prec 10) a)
  | EBinop (op, a, b) ->
    let p = prec_of_binop op in
    prec_wrap p (fun ppf ->
        Format.fprintf ppf "%a %s %a" (pp_expr_prec p) a (binop_str op)
          (pp_expr_prec (p + 1)) b)
  | ECall (f, args) ->
    Format.fprintf ppf "%s(%a)" f
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         (pp_expr_prec 0))
      args
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

and starts_with_minus e =
  match e.e with
  | EUnop (Neg, _) -> true
  | EInt v | ELong v -> v < 0L
  | EFloat f -> f = Float.neg_infinity || (not (Float.is_nan f)) && Float.sign_bit f
  | _ -> false

let pp_expr ppf e = pp_expr_prec 0 ppf e

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
    Format.fprintf ppf "%sprint(\"%s\", %a);" pad (escape_string fmt)
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         pp_expr)
      args
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

(* Typed programs print through erasure: what you see is the MiniC
   source whose re-elaboration is the typed program (used to dump the
   metamorphic twins for inspection). *)
let pp_tprogram ppf tp = pp_program ppf (Tast.erase_program tp)
let tprogram_to_string tp = Format.asprintf "%a\n" pp_tprogram tp
