(* Abstract syntax of MiniC.

   MiniC is the C-like target language of this reproduction. It is small
   but deliberately keeps every construct the paper's bug taxonomy needs:
   fixed-width signed integers ([int] is 32-bit, [long] is 64-bit) whose
   overflow is undefined, raw pointers with arithmetic, [malloc]/[free],
   unsequenced side effects in call arguments, uninitialized locals,
   cross-object pointer comparison, division by zero, shifts, doubles, and
   a [__LINE__] construct whose interpretation is implementation-defined.

   Programs are produced either by the hand-written parser ({!Parser}) or
   programmatically through {!Builder}, which locates them by their
   printed text ({!Pretty.locate}). *)

type typ =
  | Tint                   (* 32-bit signed *)
  | Tlong                  (* 64-bit signed *)
  | Tdouble
  | Tptr of typ
  | Tarr of typ * int      (* fixed-size array; decays to pointer *)
  | Tvoid                  (* only as a function return type *)

type unop =
  | Neg                    (* -e : signed negation (UB on INT_MIN at [int]) *)
  | Lnot                   (* !e : logical not, yields 0/1 *)
  | Bnot                   (* ~e : bitwise complement *)

type binop =
  | Add | Sub | Mul | Div | Mod
  | Shl | Shr
  | Lt | Le | Gt | Ge | Eq | Ne
  | Band | Bor | Bxor
  | Land | Lor             (* short-circuit && and || *)

(* Source position in a MiniC text: for an expression, [line] is the line
   of its last token and [stmt_line] the line on which the enclosing
   statement began; a statement or function is at its first line in
   both. C compilers are free to report either for [__LINE__]-style
   constructs spanning several lines (C17 6.10.4), which is the "LINE"
   bug category of Table 5. The parser and {!Pretty.locate} are the only
   places locations come from. *)
type loc = { line : int; stmt_line : int }

let no_loc = { line = 0; stmt_line = 0 }

type expr = { e : expr_desc; eloc : loc }

and expr_desc =
  | EInt of int64          (* integer literal; type fixed by context/suffix *)
  | ELong of int64         (* literal with the [L] suffix *)
  | EFloat of float
  | EStr of string         (* string literal: pointer to a fresh global *)
  | EVar of string
  | ELine                  (* __LINE__ *)
  | EUnop of unop * expr
  | EBinop of binop * expr * expr
  | ECall of string * expr list
  | EIndex of expr * expr  (* e1[e2] *)
  | EDeref of expr         (* *e *)
  | EAddr of expr          (* &e, where e must be an lvalue *)
  | EAssign of expr * expr (* e1 = e2, where e1 must be an lvalue *)
  | ECast of typ * expr
  | ECond of expr * expr * expr (* e1 ? e2 : e3 *)

type decl = {
  dtyp : typ;
  dname : string;
  dinit : expr option;
  dstatic : bool;          (* [static] locals persist across calls *)
}

type stmt = { s : stmt_desc; sloc : loc }

and stmt_desc =
  | SExpr of expr
  | SDecl of decl
  | SIf of expr * block * block
  | SWhile of expr * block
  | SReturn of expr option
  | SBreak
  | SContinue
  | SPrint of string * expr list
    (* printf-like output: %d %ld %u %x %c %s %f %p plus literal text *)
  | SBlock of block

and block = stmt list

type func = {
  fname : string;
  params : (typ * string) list;
  fret : typ;
  body : block;
  floc : loc;
}

type global = {
  gname : string;
  gtyp : typ;
  ginit : int64 list;      (* cell-wise initial contents; padded with zeros *)
}

type program = { globals : global list; funcs : func list }

(* Builtin functions provided by the runtime rather than user code. The
   compiler type-checks calls against these signatures and emits dedicated
   IR; the VM implements their behaviour (and sanitizers intercept the
   memory-touching ones, mirroring ASan's interceptors). *)
let builtins : (string * typ list * typ) list =
  [
    ("getchar", [], Tint);            (* next input byte, -1 at EOF *)
    ("input_len", [], Tint);
    ("peek", [ Tint ], Tint);         (* input byte at index, -1 if out of range *)
    ("malloc", [ Tint ], Tptr Tint);  (* n cells; returns null on n <= 0 *)
    ("free", [ Tptr Tint ], Tvoid);
    ("memset", [ Tptr Tint; Tint; Tint ], Tvoid);
    ("memcpy", [ Tptr Tint; Tptr Tint; Tint ], Tvoid);
    ("strlen", [ Tptr Tint ], Tint);
    ("exit", [ Tint ], Tvoid);
    ("abort", [], Tvoid);
    ("pow", [ Tdouble; Tdouble ], Tdouble);
    ("sqrt", [ Tdouble ], Tdouble);
    ("exp2", [ Tdouble ], Tdouble);
    ("floor", [ Tdouble ], Tdouble);
  ]

let is_builtin name = List.exists (fun (n, _, _) -> n = name) builtins

let builtin_sig name =
  List.find_map (fun (n, args, ret) -> if n = name then Some (args, ret) else None) builtins

let rec sizeof = function
  | Tint | Tlong | Tdouble | Tptr _ -> 1
  | Tarr (t, n) -> n * sizeof t
  | Tvoid -> 0

let rec equal_typ a b =
  match (a, b) with
  | Tint, Tint | Tlong, Tlong | Tdouble, Tdouble | Tvoid, Tvoid -> true
  | Tptr x, Tptr y -> equal_typ x y
  | Tarr (x, n), Tarr (y, m) -> n = m && equal_typ x y
  | (Tint | Tlong | Tdouble | Tvoid | Tptr _ | Tarr _), _ -> false

let rec pp_typ ppf = function
  | Tint -> Format.pp_print_string ppf "int"
  | Tlong -> Format.pp_print_string ppf "long"
  | Tdouble -> Format.pp_print_string ppf "double"
  | Tptr t -> Format.fprintf ppf "%a*" pp_typ t
  | Tarr (t, n) -> Format.fprintf ppf "%a[%d]" pp_typ t n
  | Tvoid -> Format.pp_print_string ppf "void"

let typ_to_string t = Format.asprintf "%a" pp_typ t
