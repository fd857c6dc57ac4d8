(* Source locations of parsed and built programs.

   A location is a position in a text: the parser reads it off the
   tokens, and {!Minic.Pretty.locate} gives a built program the
   locations the parser would give its printed text.  These tests pin
   the parser's locations on a multi-line program, check that building a
   program is reproducible down to its locations, check [locate] against
   the parser over every program the repo builds, and check that a built
   program and its printed text behave alike under the oracle. *)

open Minic

let parse_ok src =
  match Parser.parse_program_result src with
  | Ok p -> p
  | Error m -> Alcotest.failf "parse failed: %s" m

let loc_to_string (l : Ast.loc) = Printf.sprintf "{line %d; stmt %d}" l.line l.stmt_line

let check_loc what (expect : Ast.loc) (got : Ast.loc) =
  Alcotest.(check string) what (loc_to_string expect) (loc_to_string got)

(* --- the parser --- *)

let multi_line_src =
  "int main(void) {\n\
  \  int x = getchar();\n\
  \  if (x > 0) {\n\
  \    x = x - 1;\n\
  \    print(\"%d\\n\",\n\
  \      x);\n\
  \  }\n\
  \  while (x > 0) {\n\
  \    x = x - 1;\n\
  \  }\n\
  \  return\n\
  \    x;\n\
   }\n"

let at line = { Ast.line; stmt_line = line }

(* a statement sits on its first line, even when it ends lines later;
   an expression on the line of its last token *)
let test_parser_locations () =
  let p = parse_ok multi_line_src in
  let f = List.hd p.Ast.funcs in
  check_loc "function" (at 1) f.Ast.floc;
  match f.Ast.body with
  | [ decl;
      { Ast.s = Ast.SIf (cond, [ _; { Ast.s = Ast.SPrint (_, [ arg ]); sloc = ploc } ], []);
        sloc = iloc };
      { Ast.s = Ast.SWhile (wcond, [ _ ]); sloc = wloc };
      { Ast.s = Ast.SReturn (Some rv); sloc = rloc } ] ->
    check_loc "decl" (at 2) decl.Ast.sloc;
    check_loc "if" (at 3) iloc;
    check_loc "if condition" (at 3) cond.Ast.eloc;
    check_loc "print" (at 5) ploc;
    check_loc "print argument" { Ast.line = 6; stmt_line = 5 } arg.Ast.eloc;
    check_loc "while" (at 8) wloc;
    check_loc "while condition" (at 8) wcond.Ast.eloc;
    check_loc "return" (at 11) rloc;
    check_loc "return value" { Ast.line = 12; stmt_line = 11 } rv.Ast.eloc
  | _ -> Alcotest.fail "unexpected shape"

(* --- locate = the parse of the printed text --- *)

exception Mismatch of string

(* [same_locs a b] walks a located program [a] and the parse [b] of its
   text together, comparing shapes and locations.  A non-finite double
   prints as a division ("(1.0 / 0.0)"), so there only the literal's own
   location is compared. *)
let same_locs (a : Ast.program) (b : Ast.program) =
  let fn = ref "" in
  let loc what (x : Ast.loc) (y : Ast.loc) =
    if x <> y then
      raise
        (Mismatch
           (Printf.sprintf "%s: %s located %s, parsed %s" !fn what (loc_to_string x)
              (loc_to_string y)))
  in
  let rec expr (x : Ast.expr) (y : Ast.expr) =
    loc (Pretty.expr_to_string x) x.eloc y.eloc;
    match (x.e, y.e) with
    | Ast.EFloat f, _ when not (Float.is_finite f) -> ()
    | (Ast.EInt _ | Ast.ELong _ | Ast.EFloat _ | Ast.EStr _ | Ast.EVar _ | Ast.ELine), leaf
      when x.e = leaf ->
      ()
    | Ast.EUnop (_, x), Ast.EUnop (_, y)
    | Ast.EDeref x, Ast.EDeref y
    | Ast.EAddr x, Ast.EAddr y
    | Ast.ECast (_, x), Ast.ECast (_, y) ->
      expr x y
    | Ast.EBinop (_, x1, x2), Ast.EBinop (_, y1, y2)
    | Ast.EIndex (x1, x2), Ast.EIndex (y1, y2)
    | Ast.EAssign (x1, x2), Ast.EAssign (y1, y2) ->
      expr x1 y1;
      expr x2 y2
    | Ast.ECall (_, xs), Ast.ECall (_, ys) -> exprs xs ys
    | Ast.ECond (x1, x2, x3), Ast.ECond (y1, y2, y3) ->
      expr x1 y1;
      expr x2 y2;
      expr x3 y3
    | _ -> raise (Mismatch (!fn ^ ": expression shapes differ"))
  and exprs xs ys =
    if List.length xs <> List.length ys then
      raise (Mismatch (!fn ^ ": argument counts differ"));
    List.iter2 expr xs ys
  and stmt (x : Ast.stmt) (y : Ast.stmt) =
    loc "statement" x.sloc y.sloc;
    match (x.s, y.s) with
    | Ast.SExpr x, Ast.SExpr y | Ast.SReturn (Some x), Ast.SReturn (Some y) -> expr x y
    | Ast.SDecl { dinit = Some x; _ }, Ast.SDecl { dinit = Some y; _ } -> expr x y
    | Ast.SDecl { dinit = None; _ }, Ast.SDecl { dinit = None; _ }
    | Ast.SReturn None, Ast.SReturn None
    | Ast.SBreak, Ast.SBreak
    | Ast.SContinue, Ast.SContinue ->
      ()
    | Ast.SIf (c, t, f), Ast.SIf (c', t', f') ->
      expr c c';
      block t t';
      block f f'
    | Ast.SWhile (c, b), Ast.SWhile (c', b') ->
      expr c c';
      block b b'
    | Ast.SPrint (_, xs), Ast.SPrint (_, ys) -> exprs xs ys
    | Ast.SBlock b, Ast.SBlock b' -> block b b'
    | _ -> raise (Mismatch (!fn ^ ": statement shapes differ"))
  and block xs ys =
    if List.length xs <> List.length ys then
      raise (Mismatch (!fn ^ ": block lengths differ"));
    List.iter2 stmt xs ys
  in
  if List.length a.Ast.funcs <> List.length b.Ast.funcs then
    raise (Mismatch "function counts differ");
  List.iter2
    (fun (f : Ast.func) (g : Ast.func) ->
      fn := f.fname;
      loc "function" f.floc g.floc;
      block f.body g.body)
    a.Ast.funcs b.Ast.funcs

let check_located name (p : Ast.program) =
  let text = Pretty.program_to_string p in
  match same_locs (Pretty.locate p) (parse_ok text) with
  | () -> ()
  | exception Mismatch m -> Alcotest.failf "%s: %s\n%s" name m text

let test_locate_matches_parser () =
  check_located "multi-line source" (parse_ok multi_line_src);
  List.iter
    (fun (t : Juliet.Testcase.t) ->
      check_located (t.name ^ " bad") t.bad;
      check_located (t.name ^ " good") t.good)
    (Juliet.Suite.full ());
  List.iter
    (fun (p : Projects.Project.t) -> check_located p.pname p.program)
    Projects.Registry.all;
  for seed = 1 to 200 do
    let r = Gen.Effgen.generate ~seed in
    check_located (Printf.sprintf "effgen seed %d" seed) r.Gen.Effgen.prog;
    List.iter
      (fun cls ->
        let inj = Gen.Inject.inject ~seed r cls in
        check_located
          (Printf.sprintf "effgen seed %d with %s" seed (Gen.Inject.class_name cls))
          inj.Gen.Inject.inj_prog)
      Gen.Inject.all_classes
  done

(* the LINE templates' [__LINE__] sits on the line after its statement's
   first line in the text, so the two readings of it differ *)
let test_line_spans_two_lines () =
  let spans = ref 0 in
  let rec expr sl (e : Ast.expr) =
    match e.e with
    | Ast.ELine ->
      check_loc "__LINE__" { Ast.line = sl + 1; stmt_line = sl } e.eloc;
      incr spans
    | Ast.ECall (_, args) -> List.iter (expr sl) args
    | _ -> ()
  and stmt (s : Ast.stmt) =
    match s.s with
    | Ast.SPrint (_, args) -> List.iter (expr s.sloc.stmt_line) args
    | Ast.SIf (_, t, f) -> List.iter stmt (t @ f)
    | Ast.SWhile (_, b) | Ast.SBlock b -> List.iter stmt b
    | _ -> ()
  in
  List.iter
    (fun (p : Projects.Project.t) ->
      if List.exists (fun b -> b.Projects.Project.category = Projects.Project.Line) p.bugs
      then List.iter (fun (f : Ast.func) -> List.iter stmt f.body) p.program.Ast.funcs)
    Projects.Registry.all;
  Alcotest.(check int) "six LINE targets, one __LINE__ each" 6 !spans

(* --- building is reproducible --- *)

(* the same program built twice, or after other programs were built,
   is the same value down to its locations *)
let test_builds_reproducible () =
  let bytes () =
    List.concat_map
      (fun (t : Juliet.Testcase.t) ->
        [ Marshal.to_string t.bad []; Marshal.to_string t.good [] ])
      (Juliet.Suite.quick ())
  in
  let first = bytes () in
  let second = bytes () in
  ignore (Gen.Effgen.generate ~seed:7);
  let third = bytes () in
  Alcotest.(check bool) "built twice: equal bytes" true (first = second);
  Alcotest.(check bool) "after an effgen program: equal bytes" true (first = third);
  Alcotest.(check bool) "effgen: equal bytes" true
    (Marshal.to_string (Gen.Effgen.generate ~seed:7) []
    = Marshal.to_string (Gen.Effgen.generate ~seed:7) [])

(* --- a built program behaves as its text --- *)

let reparse (p : Ast.program) =
  match frontend_of_source (Pretty.program_to_string p) with
  | Ok tp -> tp
  | Error m -> Alcotest.failf "printed program does not re-elaborate: %s" m

let deep_text oracle ~input obs =
  let store = Compdiff.Triage.create () in
  ignore (Compdiff.Triage.add store oracle ~input obs);
  match Compdiff.Triage.entries store with
  | [ e ] -> (
    match Compdiff.Triage.entry_deep oracle e with
    | None -> "no divergent pair"
    | Some l -> Compdiff.Localize.to_string l)
  | _ -> "not one triage entry"

(* the verdict of every input, and the deep localization of every
   divergence, of the built program and of its re-parsed text *)
let same_behaviour name ?(profiles = Cdcompiler.Profiles.all)
    ?(normalize = Compdiff.Normalize.identity) (p : Ast.program) inputs =
  let session = Engine.Session.create ~cache_mb:0 () in
  let oracle tp = Compdiff.Oracle.create ~session ~profiles ~normalize ~fuel:60_000 tp in
  let built = oracle (Typecheck.check_program p) in
  let text = oracle (reparse p) in
  List.iter
    (fun input ->
      let vb = Compdiff.Oracle.check built ~input in
      let vt = Compdiff.Oracle.check text ~input in
      Alcotest.(check bool) (Printf.sprintf "%s %S: same verdict" name input) true (vb = vt);
      match vb with
      | Compdiff.Oracle.Agree _ -> ()
      | Compdiff.Oracle.Diverge obs ->
        Alcotest.(check string)
          (Printf.sprintf "%s %S: same entry_deep" name input)
          (deep_text built ~input obs) (deep_text text ~input obs))
    inputs

let test_built_is_its_text () =
  List.iter
    (fun (t : Juliet.Testcase.t) ->
      same_behaviour (t.name ^ " bad") t.bad t.inputs;
      same_behaviour (t.name ^ " good") t.good t.inputs)
    (Juliet.Suite.quick ());
  List.iter
    (fun (p : Projects.Project.t) ->
      match p.bugs with
      | [] -> ()
      | b :: _ ->
        same_behaviour p.pname ~profiles:(Projects.Project.profiles_for p)
          ~normalize:p.normalize p.program [ b.Projects.Project.witness ])
    Projects.Registry.all

let suites =
  [
    ( "minic.locate",
      [
        Alcotest.test_case "parser: statement and expression lines" `Quick
          test_parser_locations;
        Alcotest.test_case "locate = parse of the printed text" `Quick
          test_locate_matches_parser;
        Alcotest.test_case "LINE templates span two lines" `Quick
          test_line_spans_two_lines;
        Alcotest.test_case "builds are reproducible" `Quick test_builds_reproducible;
        Alcotest.test_case "a built program behaves as its text" `Quick
          test_built_is_its_text;
      ] );
  ]
