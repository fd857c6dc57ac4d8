(* Controlled single-UB injection.

   Takes a clean {!Effgen} program and plants exactly one labeled defect
   at one of its recorded injection sites, returning the ground-truth
   class. Each recipe is designed against the compiler model's actual
   policies so that the defect is (a) reachable on every run, (b) the
   *only* UB in the program, and (c) guaranteed to make the ten
   implementations disagree:

   - [Overflow]: an overflow-style bounds guard [w + INT_MAX > w] with
     [w >= 1]. Unoptimized builds evaluate the wrapped (negative) sum
     and take the else-branch; builds with [ub_branch_fold] rewrite the
     comparison to [INT_MAX > 0] and take the then-branch.
   - [Uninit]: an uninitialized scalar that is branched on (what the
     MSan model can see) and printed (uninit reads come from the
     profile's [uninit_policy] plus per-family stack junk, so the
     printed value differs across implementations).
   - [Oob]: a read one past the end of a *local* array, printed. The
     cell is mapped frame memory whose content depends on slot order,
     slot gap and stack seed — all family-differing — and sits inside
     the ASan model's redzone.
   - [Ptrcmp]: a relational comparison of two distinct stack objects.
     [slots_reversed] flips their address order on one family only.
   - [Divzero]: a *dead* division by zero. Unoptimized builds execute
     it and trap; optimizing builds promote the dead result and delete
     the division (constant folding deliberately refuses to fold
     division by zero, dead-code elimination deletes it).

   Sites are the empty-block markers of the clean program; injection
   replaces exactly one marker with the defect block, so clean and
   injected twins differ in nothing else. *)

open Minic
module B = Minic.Builder
module Rng = Cdutil.Rng

type ub_class = Overflow | Uninit | Oob | Ptrcmp | Divzero

let all_classes = [ Overflow; Uninit; Oob; Ptrcmp; Divzero ]

let class_name = function
  | Overflow -> "signed-overflow"
  | Uninit -> "uninit-read"
  | Oob -> "oob-index"
  | Ptrcmp -> "ptr-compare"
  | Divzero -> "div-by-zero"

(* the Finding kinds a static tool must report to count as a true
   positive for this class (the Table 3 row the class belongs to) *)
let finding_kinds = function
  | Overflow -> [ Staticcheck.Finding.Int_error ]
  | Uninit -> [ Staticcheck.Finding.Uninit ]
  | Oob -> [ Staticcheck.Finding.Mem_error ]
  | Ptrcmp -> [ Staticcheck.Finding.Ptr_sub ]
  | Divzero -> [ Staticcheck.Finding.Div_zero ]

(* a distinctive substring of the defect's source line, used to recover
   the ground-truth line number from the pretty-printed program *)
let line_marker = function
  | Overflow -> "inj_w + 2147483647"
  | Uninit -> "inj_u >"
  | Oob -> "inj_oob"
  | Ptrcmp -> "inj_p < inj_q"
  | Divzero -> "/ inj_z"

(* an in-scope int expression at the site, or an input-derived fallback
   (peek is pure and does not disturb the stream) *)
let site_src rng (site : Effgen.site) : Ast.expr =
  match site.Effgen.site_scalars with
  | [] -> B.( &: ) (B.call "peek" [ B.int 0 ]) (B.int 7)
  | scalars -> B.var (fst (Rng.choose_list rng scalars))

let defect_stmts rng (site : Effgen.site) (cls : ub_class) : Ast.stmt list =
  match cls with
  | Overflow ->
    (* input-derived, so no constant-folding pass can pre-evaluate the
       wrapped comparison: the divergence must come from [ub_branch_fold]
       rewriting the guard, not from folding both sides the same way *)
    let w =
      B.( +: )
        (B.( &: ) (B.call "peek" [ B.int 0 ]) (B.int 7))
        (B.int 1)
    in
    [
      B.decl Ast.Tint "inj_w" ~init:w;
      B.if_
        (B.( >: ) (B.( +: ) (B.var "inj_w") (B.int 2147483647)) (B.var "inj_w"))
        [ B.print "inj_o yes %d\n" [ B.var "inj_w" ] ]
        [ B.print "inj_o no\n" [] ];
    ]
  | Uninit ->
    [
      B.decl Ast.Tint "inj_u";
      B.if_
        (B.( >: ) (B.var "inj_u") (B.int 2))
        [ B.print "inj_u hi\n" [] ]
        [ B.print "inj_u lo\n" [] ];
      B.print "inj_uv %d\n" [ B.var "inj_u" ];
    ]
  | Oob ->
    (* reuse a local array when the site has one; otherwise synthesize a
       fully initialized one (the OOB read must stay the only defect).
       Globals are useless here: their neighbours are zero-initialized
       identically everywhere. *)
    let arr, len, prelude =
      match site.Effgen.site_arrays with
      | (a, len) :: _ when String.length a >= 3 && String.sub a 0 3 = "buf" ->
        (a, len, [])
      | _ ->
        ( "inj_b",
          4,
          B.decl_arr Ast.Tint "inj_b" 4
          :: List.init 4 (fun i ->
                 B.set_idx (B.var "inj_b") (B.int i) (B.int (i + 1))) )
    in
    prelude
    @ [ B.print "inj_oob %d\n" [ B.idx (B.var arr) (B.int len) ] ]
  | Ptrcmp ->
    [
      B.decl_arr Ast.Tint "inj_p" 2;
      B.set_idx (B.var "inj_p") (B.int 0) (B.int 1);
      B.set_idx (B.var "inj_p") (B.int 1) (B.int 2);
      B.decl_arr Ast.Tint "inj_q" 2;
      B.set_idx (B.var "inj_q") (B.int 0) (B.int 3);
      B.set_idx (B.var "inj_q") (B.int 1) (B.int 4);
      B.if_
        (B.( <: ) (B.var "inj_p") (B.var "inj_q"))
        [ B.print "inj_c 1\n" [] ]
        [ B.print "inj_c 0\n" [] ];
    ]
  | Divzero ->
    [
      B.decl Ast.Tint "inj_z" ~init:(B.int 0);
      B.decl Ast.Tint "inj_d" ~init:(B.( /: ) (site_src rng site) (B.var "inj_z"));
    ]

(* replace the [n]-th empty-block marker of the program with [stmts];
   markers are the only empty blocks the generator emits *)
let splice_at (p : Ast.program) (n : int) (stmts : Ast.stmt list) : Ast.program
    =
  let count = ref (-1) in
  let rec stmt (s : Ast.stmt) : Ast.stmt =
    match s.Ast.s with
    | Ast.SBlock [] ->
      incr count;
      if !count = n then { s with Ast.s = Ast.SBlock stmts } else s
    | Ast.SBlock b -> { s with Ast.s = Ast.SBlock (List.map stmt b) }
    | Ast.SIf (c, t, f) ->
      { s with Ast.s = Ast.SIf (c, List.map stmt t, List.map stmt f) }
    | Ast.SWhile (c, b) -> { s with Ast.s = Ast.SWhile (c, List.map stmt b) }
    | Ast.SExpr _ | Ast.SDecl _ | Ast.SReturn _ | Ast.SBreak | Ast.SContinue
    | Ast.SPrint _ ->
      s
  in
  {
    p with
    Ast.funcs =
      List.map
        (fun f -> { f with Ast.body = List.map stmt f.Ast.body })
        p.Ast.funcs;
  }

type injected = {
  inj_prog : Ast.program;
  cls : ub_class;
  site : Effgen.site;
  marker : string; (* substring locating the defect line in the source *)
}

(* [inject ~seed r cls]: plant one [cls] defect at a deterministic
   rng-chosen site of the clean program [r.prog] *)
let inject ~seed (r : Effgen.result) (cls : ub_class) : injected =
  let rng = Rng.create (Rng.mix seed 0x1b7) in
  let site = Rng.choose_list rng r.Effgen.sites in
  let stmts = defect_stmts rng site cls in
  {
    inj_prog = Pretty.locate (splice_at r.Effgen.prog site.Effgen.site_id stmts);
    cls;
    site;
    marker = line_marker cls;
  }

(* ground-truth line: where the defect landed in the printed source *)
let defect_line ~(src : string) (inj : injected) : int =
  let marker = inj.marker in
  let mlen = String.length marker in
  let n = String.length src in
  let rec find i =
    if i + mlen > n then None
    else if String.sub src i mlen = marker then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> 0
  | Some pos ->
    let line = ref 1 in
    String.iteri (fun i c -> if i < pos && c = '\n' then incr line) src;
    !line
