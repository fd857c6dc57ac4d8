(* Recursive-descent parser for MiniC.

   Grammar is a small C subset. Notable points:
   - [for] loops are desugared to [while] (so [continue] inside a [for]
     skips the increment; MiniC sources in this repo avoid that pattern);
   - prefix [++e]/[--e] desugar to assignments; postfix increments are only
     accepted in expression-statement position;
   - a parenthesized type name starts a cast, resolved with one token of
     lookahead;
   - "-" directly before a literal is a negative literal, as
     {!Pretty} prints one. *)

open Lexer

exception Error of string * int

type state = {
  toks : spanned array;
  mutable idx : int;
  mutable stmt_line : int; (* line on which the current statement began *)
}

let cur st = st.toks.(st.idx)
let peek st = (cur st).tok
let peek_ahead st n =
  let i = min (st.idx + n) (Array.length st.toks - 1) in
  st.toks.(i).tok

let line st = (cur st).tline

let advance st = if st.idx < Array.length st.toks - 1 then st.idx <- st.idx + 1

let fail st msg = raise (Error (msg, line st))

let expect st tok what =
  if peek st = tok then advance st else fail st (Printf.sprintf "expected %s" what)

(* An expression ends on the line of its last token, already consumed
   when the node is built; [stmt_line] is where its statement began. *)
let mkloc st =
  let last = st.toks.(max 0 (st.idx - 1)).tline in
  { Ast.line = last; stmt_line = st.stmt_line }

let mke st desc = { Ast.e = desc; eloc = mkloc st }

(* --- types --- *)

let is_type_kw = function
  | KW ("int" | "long" | "double" | "void") -> true
  | _ -> false

let base_type st =
  match peek st with
  | KW "int" -> advance st; Ast.Tint
  | KW "long" -> advance st; Ast.Tlong
  | KW "double" -> advance st; Ast.Tdouble
  | KW "void" -> advance st; Ast.Tvoid
  | _ -> fail st "expected a type"

let rec ptr_suffix st t =
  if peek st = STAR then begin
    advance st;
    ptr_suffix st (Ast.Tptr t)
  end
  else t

let parse_type st = ptr_suffix st (base_type st)

(* --- expressions --- *)

let unop_of_token = function
  | MINUS -> Some Ast.Neg
  | BANG -> Some Ast.Lnot
  | TILDE -> Some Ast.Bnot
  | _ -> None

let rec parse_expr st = parse_assign st

and parse_assign st =
  let lhs = parse_ternary st in
  match peek st with
  | ASSIGN ->
    advance st;
    let rhs = parse_assign st in
    mke st (Ast.EAssign (lhs, rhs))
  | PLUSEQ ->
    advance st;
    let rhs = parse_assign st in
    mke st (Ast.EAssign (lhs, mke st (Ast.EBinop (Ast.Add, lhs, rhs))))
  | MINUSEQ ->
    advance st;
    let rhs = parse_assign st in
    mke st (Ast.EAssign (lhs, mke st (Ast.EBinop (Ast.Sub, lhs, rhs))))
  | STAREQ ->
    advance st;
    let rhs = parse_assign st in
    mke st (Ast.EAssign (lhs, mke st (Ast.EBinop (Ast.Mul, lhs, rhs))))
  | _ -> lhs

and parse_ternary st =
  let c = parse_binary st 0 in
  if peek st = QUESTION then begin
    advance st;
    let t = parse_expr st in
    expect st COLON ":";
    let f = parse_ternary st in
    mke st (Ast.ECond (c, t, f))
  end
  else c

(* Precedence-climbing over binary operators; level 0 is loosest. *)
and binop_at_level tok level =
  let open Ast in
  match (level, tok) with
  | 0, OROR -> Some Lor
  | 1, ANDAND -> Some Land
  | 2, PIPE -> Some Bor
  | 3, CARET -> Some Bxor
  | 4, AMP -> Some Band
  | 5, EQEQ -> Some Eq
  | 5, NEQ -> Some Ne
  | 6, LT -> Some Lt
  | 6, LE -> Some Le
  | 6, GT -> Some Gt
  | 6, GE -> Some Ge
  | 7, SHL -> Some Shl
  | 7, SHR -> Some Shr
  | 8, PLUS -> Some Add
  | 8, MINUS -> Some Sub
  | 9, STAR -> Some Mul
  | 9, SLASH -> Some Div
  | 9, PERCENT -> Some Mod
  | _ -> None

and parse_binary st level =
  if level > 9 then parse_unary st
  else begin
    let lhs = ref (parse_binary st (level + 1)) in
    let continue = ref true in
    while !continue do
      match binop_at_level (peek st) level with
      | Some op ->
        advance st;
        let rhs = parse_binary st (level + 1) in
        lhs := mke st (Ast.EBinop (op, !lhs, rhs))
      | None -> continue := false
    done;
    !lhs
  end

and parse_unary st =
  match (peek st, peek_ahead st 1) with
  (* "-" on a literal is a negative literal, as the printer writes one;
     an int literal above INT_MAX stays a negation *)
  | MINUS, INT v when v <= Int64.of_int32 Int32.max_int ->
    advance st;
    advance st;
    mke st (Ast.EInt (Int64.neg v))
  | MINUS, LONGLIT v ->
    advance st;
    advance st;
    mke st (Ast.ELong (Int64.neg v))
  | MINUS, FLOAT f ->
    advance st;
    advance st;
    mke st (Ast.EFloat (Float.neg f))
  | (MINUS | BANG | TILDE), _ ->
    let op = Option.get (unop_of_token (peek st)) in
    advance st;
    let e = parse_unary st in
    mke st (Ast.EUnop (op, e))
  | STAR, _ ->
    advance st;
    let e = parse_unary st in
    mke st (Ast.EDeref e)
  | AMP, _ ->
    advance st;
    let e = parse_unary st in
    mke st (Ast.EAddr e)
  | PLUSPLUS, _ ->
    advance st;
    let e = parse_unary st in
    mke st (Ast.EAssign (e, mke st (Ast.EBinop (Ast.Add, e, mke st (Ast.EInt 1L)))))
  | MINUSMINUS, _ ->
    advance st;
    let e = parse_unary st in
    mke st (Ast.EAssign (e, mke st (Ast.EBinop (Ast.Sub, e, mke st (Ast.EInt 1L)))))
  | LPAREN, next when is_type_kw next ->
    advance st;
    let t = parse_type st in
    expect st RPAREN ")";
    let e = parse_unary st in
    mke st (Ast.ECast (t, e))
  | _ -> parse_postfix st

and parse_postfix st =
  let e = ref (parse_primary st) in
  let continue = ref true in
  while !continue do
    match peek st with
    | LBRACK ->
      advance st;
      let idx = parse_expr st in
      expect st RBRACK "]";
      e := mke st (Ast.EIndex (!e, idx))
    | _ -> continue := false
  done;
  !e

and parse_primary st =
  match peek st with
  | INT v ->
    advance st;
    mke st (Ast.EInt v)
  | LONGLIT v ->
    advance st;
    mke st (Ast.ELong v)
  | FLOAT f ->
    advance st;
    mke st (Ast.EFloat f)
  | STR s ->
    advance st;
    mke st (Ast.EStr s)
  | LINEKW ->
    advance st;
    mke st Ast.ELine
  | IDENT name ->
    advance st;
    if peek st = LPAREN then begin
      advance st;
      let args = parse_args st in
      mke st (Ast.ECall (name, args))
    end
    else mke st (Ast.EVar name)
  | LPAREN ->
    advance st;
    let e = parse_expr st in
    expect st RPAREN ")";
    e
  | t -> fail st (Printf.sprintf "unexpected token %s" (token_to_string t))

and parse_args st =
  if peek st = RPAREN then begin
    advance st;
    []
  end
  else begin
    let rec loop acc =
      let e = parse_expr st in
      match peek st with
      | COMMA ->
        advance st;
        loop (e :: acc)
      | RPAREN ->
        advance st;
        List.rev (e :: acc)
      | _ -> fail st "expected ',' or ')' in argument list"
    in
    loop []
  end

(* --- statements --- *)

(* A statement is located at the line of its first token: [parse_stmt]
   reads it once, before the statement's own sub-statements move
   [st.stmt_line] on, and every node the statement desugars into
   shares it. *)
let rec parse_stmt st =
  let start = line st in
  st.stmt_line <- start;
  let sloc = { Ast.line = start; stmt_line = start } in
  { Ast.s = parse_stmt_desc st sloc; sloc }

and parse_stmt_desc st sloc =
  match peek st with
  | KW "static" -> parse_decl st
  | KW ("int" | "long" | "double") -> parse_decl st
  | KW "if" -> parse_if st
  | KW "while" -> parse_while st
  | KW "for" -> parse_for st sloc
  | KW "return" ->
    advance st;
    if peek st = SEMI then begin
      advance st;
      Ast.SReturn None
    end
    else begin
      let e = parse_expr st in
      expect st SEMI ";";
      Ast.SReturn (Some e)
    end
  | KW "break" ->
    advance st;
    expect st SEMI ";";
    Ast.SBreak
  | KW "continue" ->
    advance st;
    expect st SEMI ";";
    Ast.SContinue
  | KW "print" ->
    advance st;
    expect st LPAREN "(";
    let fmt =
      match peek st with
      | STR s ->
        advance st;
        s
      | _ -> fail st "print expects a format string literal"
    in
    let args =
      if peek st = COMMA then begin
        advance st;
        let rec loop acc =
          let e = parse_expr st in
          if peek st = COMMA then begin
            advance st;
            loop (e :: acc)
          end
          else List.rev (e :: acc)
        in
        loop []
      end
      else []
    in
    expect st RPAREN ")";
    expect st SEMI ";";
    Ast.SPrint (fmt, args)
  | LBRACE -> Ast.SBlock (parse_block st)
  | _ ->
    let e = parse_expr_statement st in
    expect st SEMI ";";
    Ast.SExpr e

(* Expression statements additionally allow postfix ++/--. *)
and parse_expr_statement st =
  let e = parse_expr st in
  match peek st with
  | PLUSPLUS ->
    advance st;
    mke st (Ast.EAssign (e, mke st (Ast.EBinop (Ast.Add, e, mke st (Ast.EInt 1L)))))
  | MINUSMINUS ->
    advance st;
    mke st (Ast.EAssign (e, mke st (Ast.EBinop (Ast.Sub, e, mke st (Ast.EInt 1L)))))
  | _ -> e

and parse_decl st =
  let dstatic =
    if peek st = KW "static" then begin
      advance st;
      true
    end
    else false
  in
  let base = parse_type st in
  let name =
    match peek st with
    | IDENT n ->
      advance st;
      n
    | _ -> fail st "expected a variable name"
  in
  let dtyp =
    if peek st = LBRACK then begin
      advance st;
      match peek st with
      | INT n ->
        advance st;
        expect st RBRACK "]";
        Ast.Tarr (base, Int64.to_int n)
      | _ -> fail st "expected an array size literal"
    end
    else base
  in
  let dinit =
    if peek st = ASSIGN then begin
      advance st;
      Some (parse_expr st)
    end
    else None
  in
  expect st SEMI ";";
  Ast.SDecl { dtyp; dname = name; dinit; dstatic }

and parse_if st =
  advance st;
  expect st LPAREN "(";
  let cond = parse_expr st in
  expect st RPAREN ")";
  let then_b = parse_branch st in
  let else_b =
    if peek st = KW "else" then begin
      advance st;
      parse_branch st
    end
    else []
  in
  Ast.SIf (cond, then_b, else_b)

and parse_while st =
  advance st;
  expect st LPAREN "(";
  let cond = parse_expr st in
  expect st RPAREN ")";
  let body = parse_branch st in
  Ast.SWhile (cond, body)

(* [for (init; cond; incr) body] is [{ init; while (cond) { body incr } }],
   every part at the [for]'s location [sloc] *)
and parse_for st sloc =
  let mk desc = { Ast.s = desc; sloc } in
  advance st;
  expect st LPAREN "(";
  let init =
    if peek st = SEMI then begin
      advance st;
      None
    end
    else begin
      match peek st with
      | KW ("int" | "long" | "double" | "static") -> Some (mk (parse_decl st))
      | _ ->
        let e = parse_expr st in
        expect st SEMI ";";
        Some (mk (Ast.SExpr e))
    end
  in
  let cond =
    if peek st = SEMI then mke st (Ast.EInt 1L) else parse_expr st
  in
  expect st SEMI ";";
  let incr =
    if peek st = RPAREN then None
    else Some (mk (Ast.SExpr (parse_expr_statement st)))
  in
  expect st RPAREN ")";
  let body = parse_branch st in
  let while_body = body @ Option.to_list incr in
  let loop = mk (Ast.SWhile (cond, while_body)) in
  Ast.SBlock (Option.to_list init @ [ loop ])

and parse_branch st =
  if peek st = LBRACE then parse_block st else [ parse_stmt st ]

and parse_block st =
  expect st LBRACE "{";
  let rec loop acc =
    if peek st = RBRACE then begin
      advance st;
      List.rev acc
    end
    else if peek st = EOF then fail st "unexpected end of file in block"
    else loop (parse_stmt st :: acc)
  in
  loop []

(* --- top level --- *)

let parse_global_init st =
  if peek st = ASSIGN then begin
    advance st;
    if peek st = LBRACE then begin
      advance st;
      let rec loop acc =
        match peek st with
        | INT v | LONGLIT v ->
          advance st;
          if peek st = COMMA then begin
            advance st;
            loop (v :: acc)
          end
          else begin
            expect st RBRACE "}";
            List.rev (v :: acc)
          end
        | MINUS ->
          advance st;
          (match peek st with
          | INT v | LONGLIT v ->
            advance st;
            let v = Int64.neg v in
            if peek st = COMMA then begin
              advance st;
              loop (v :: acc)
            end
            else begin
              expect st RBRACE "}";
              List.rev (v :: acc)
            end
          | _ -> fail st "expected a number after '-'")
        | RBRACE ->
          advance st;
          List.rev acc
        | _ -> fail st "expected a constant in initializer"
      in
      loop []
    end
    else begin
      match peek st with
      | INT v | LONGLIT v ->
        advance st;
        [ v ]
      | MINUS ->
        advance st;
        (match peek st with
        | INT v | LONGLIT v ->
          advance st;
          [ Int64.neg v ]
        | _ -> fail st "expected a number after '-'")
      | _ -> fail st "expected a constant global initializer"
    end
  end
  else []

let parse_toplevel st =
  let start = line st in
  st.stmt_line <- start;
  let base = parse_type st in
  let name =
    match peek st with
    | IDENT n ->
      advance st;
      n
    | _ -> fail st "expected a name at top level"
  in
  if peek st = LPAREN then begin
    (* function definition, located at its header's first line *)
    let floc = { Ast.line = start; stmt_line = start } in
    advance st;
    let params =
      if peek st = RPAREN || (peek st = KW "void" && peek_ahead st 1 = RPAREN)
      then begin
        if peek st = KW "void" then advance st;
        advance st;
        []
      end
      else begin
        let rec loop acc =
          let t = parse_type st in
          let pname =
            match peek st with
            | IDENT n ->
              advance st;
              n
            | _ -> fail st "expected a parameter name"
          in
          if peek st = COMMA then begin
            advance st;
            loop ((t, pname) :: acc)
          end
          else begin
            expect st RPAREN ")";
            List.rev ((t, pname) :: acc)
          end
        in
        loop []
      end
    in
    let body = parse_block st in
    `Func { Ast.fname = name; params; fret = base; body; floc }
  end
  else begin
    (* global variable *)
    let gtyp =
      if peek st = LBRACK then begin
        advance st;
        match peek st with
        | INT n ->
          advance st;
          expect st RBRACK "]";
          Ast.Tarr (base, Int64.to_int n)
        | _ -> fail st "expected an array size literal"
      end
      else base
    in
    let ginit = parse_global_init st in
    expect st SEMI ";";
    `Global { Ast.gname = name; gtyp; ginit }
  end

let parse_program src =
  let toks = Array.of_list (Lexer.tokenize src) in
  let st = { toks; idx = 0; stmt_line = 1 } in
  let rec loop globals funcs =
    if peek st = EOF then
      { Ast.globals = List.rev globals; funcs = List.rev funcs }
    else begin
      match parse_toplevel st with
      | `Func f -> loop globals (f :: funcs)
      | `Global g -> loop (g :: globals) funcs
    end
  in
  loop [] []

let parse_program_result src =
  match parse_program src with
  | p -> Ok p
  | exception Error (msg, line) -> Error (Printf.sprintf "parse error at line %d: %s" line msg)
  | exception Lexer.Error (msg, line) ->
    Error (Printf.sprintf "lex error at line %d: %s" line msg)
