(* Assembles a list of tag handlers into a complete project program:
   one function per handler plus a dispatching [main] that reads the tag
   byte, mirroring the structure of the real fuzzing targets (one input
   format, many record kinds). *)

open Minic.Ast
open Minic.Builder

let handler_fname (uid : string) (h : Templates.handler) =
  Printf.sprintf "%s_handle_%c" uid h.Templates.tag

(* optional banner statements prepended to main (e.g. wireshark's
   timestamped warnings) *)
let build ?(banner = []) ~(uid : string) (handlers : Templates.handler list) :
    Minic.Ast.program * Project.seeded_bug list * string list =
  let helper_funcs = List.concat_map (fun h -> h.Templates.helpers) handlers in
  let globals = List.concat_map (fun h -> h.Templates.globals) handlers in
  let handler_funcs =
    List.map
      (fun h -> func Tint (handler_fname uid h) (h.Templates.body @ [ ret (int 0) ]))
      handlers
  in
  let dispatch =
    List.fold_right
      (fun h rest ->
        [
          if_
            (var "tag" ==: int (Char.code h.Templates.tag))
            [ expr (call (handler_fname uid h) []); ret (int 0) ]
            rest;
        ])
      handlers
      [ print "unknown record %d\n" [ var "tag" ]; ret (int 1) ]
  in
  let main_f =
    func Tint "main"
      (banner
      @ [
          decl Tint "tag" ~init:(call "getchar" []);
          if_ (var "tag" ==: int (-1)) [ print "empty input\n" []; ret (int 0) ] [];
        ]
      @ dispatch)
  in
  let program = program ~globals (helper_funcs @ handler_funcs @ [ main_f ]) in
  let bugs = List.filter_map (fun h -> h.Templates.bug) handlers in
  let seeds =
    (* every tag appears in the corpus with a small payload, as a real
       target's test suite would cover every record kind *)
    "" :: List.map (fun h -> Printf.sprintf "%cAB0" h.Templates.tag) handlers
  in
  (program, bugs, seeds)

let make ?banner ?(normalize = Compdiff.Normalize.identity)
    ?(nondeterministic = false) ?(needs_buggy_compiler = false) ~pname
    ~input_type ~version ~paper_kloc (handlers : Templates.handler list) :
    Project.t =
  let uid = String.map (fun c -> if c = '-' then '_' else c) pname in
  let program, bugs, seeds = build ?banner ~uid handlers in
  {
    Project.pname;
    input_type;
    version;
    paper_kloc;
    program;
    seeds;
    bugs;
    normalize;
    nondeterministic;
    needs_buggy_compiler;
  }
