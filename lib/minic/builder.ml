(* Combinators for constructing MiniC ASTs programmatically.

   The Juliet-style suite generators and the synthetic projects build
   thousands of programs; these helpers keep those definitions close to the
   C they denote, e.g.

   {[
     func Tint "main" [] [
       decl Tint "x" ~init:(call "getchar" []);
       if_ (var "x" >: int 0) [ print "pos %d\n" [ var "x" ] ] [];
       ret (int 0);
     ]
   ]}

   Locations: [at] wraps a statement with an explicit line; otherwise a
   builder-wide counter assigns consecutive lines so that [__LINE__]
   behaviour is still meaningful in generated programs. *)

open Ast

let line_counter = ref 0

let next_loc () =
  incr line_counter;
  { line = !line_counter; stmt_line = !line_counter }

let e d = { e = d; eloc = next_loc () }

let int n = e (EInt (Int64.of_int n))
let int64 v = e (EInt v)
let long n = e (ELong (Int64.of_int n))
let long64 v = e (ELong v)
let flt f = e (EFloat f)
let str s = e (EStr s)
let var v = e (EVar v)

let neg a = e (EUnop (Neg, a))
let lnot a = e (EUnop (Lnot, a))
let bnot a = e (EUnop (Bnot, a))

let binop op a b = e (EBinop (op, a, b))
let ( +: ) a b = binop Add a b
let ( -: ) a b = binop Sub a b
let ( *: ) a b = binop Mul a b
let ( /: ) a b = binop Div a b
let ( %: ) a b = binop Mod a b
let ( <: ) a b = binop Lt a b
let ( <=: ) a b = binop Le a b
let ( >: ) a b = binop Gt a b
let ( >=: ) a b = binop Ge a b
let ( ==: ) a b = binop Eq a b
let ( <>: ) a b = binop Ne a b
let ( &&: ) a b = binop Land a b
let ( ||: ) a b = binop Lor a b
let ( &: ) a b = binop Band a b
let ( |: ) a b = binop Bor a b
let ( ^: ) a b = binop Bxor a b
let ( <<: ) a b = binop Shl a b
let ( >>: ) a b = binop Shr a b

let call f args = e (ECall (f, args))
let idx a i = e (EIndex (a, i))
let deref a = e (EDeref a)
let addr a = e (EAddr a)
let assign l r = e (EAssign (l, r))
let cast t a = e (ECast (t, a))
let cond c t f = e (ECond (c, t, f))

let s d = { s = d; sloc = next_loc () }

let at line stmt = { stmt with sloc = { line; stmt_line = line } }

let expr ex = s (SExpr ex)
let set name ex = s (SExpr (assign (var name) ex))
let set_idx arr i ex = s (SExpr (assign (idx arr i) ex))
let set_deref p ex = s (SExpr (assign (deref p) ex))

let decl ?init t name = s (SDecl { dtyp = t; dname = name; dinit = init; dstatic = false })
let decl_static ?init t name =
  s (SDecl { dtyp = t; dname = name; dinit = init; dstatic = true })
let decl_arr t name n = s (SDecl { dtyp = Tarr (t, n); dname = name; dinit = None; dstatic = false })

let if_ c t f = s (SIf (c, t, f))
let while_ c b = s (SWhile (c, b))
let ret ex = s (SReturn (Some ex))

(* Unused, but not dead: like [break_] and [continue_] it is built at
   module initialisation and takes a line from the counter (line 1), and
   the lines of every program built later follow from it. *)
let ret_void = s (SReturn None)
let break_ = s SBreak
let continue_ = s SContinue
let print fmt args = s (SPrint (fmt, args))
let block b = s (SBlock b)

(* A counted loop [for (int i = lo; i < hi; i++) body]. *)
let for_up i lo hi body =
  block
    [
      decl Tint i ~init:lo;
      while_ (var i <: hi) (body @ [ set i (var i +: int 1) ]);
    ]

let func ?(params = []) fret fname body =
  { fname; params; fret; body; floc = next_loc () }

let global ?(init = []) gname gtyp = { gname; gtyp; ginit = init }
let global_arr ?(init = []) gname t n = { gname; gtyp = Tarr (t, n); ginit = init }

let program ?(globals = []) funcs = { globals; funcs }

(* Convenience: a whole program with just a [main]. *)
let main_program ?(globals = []) ?(funcs = []) body =
  { globals; funcs = funcs @ [ func Tint "main" body ] }
