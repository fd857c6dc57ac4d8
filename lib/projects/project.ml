(* A synthetic "real-world project": a MiniC program modeling one of the
   paper's 23 fuzzing targets (Table 4), with ground-truth seeded bugs.

   Each bug carries the category of Table 5, a witness input that
   triggers it, a trigger predicate used for triage (attributing a found
   divergence to a seeded bug), and the confirmed/fixed status we model
   after the paper's bug-report outcomes. *)

type bug_category =
  | EvalOrder
  | UninitMem
  | IntError
  | MemError
  | PointerCmp
  | Line
  | Misc

let category_to_string = function
  | EvalOrder -> "EvalOrder"
  | UninitMem -> "UninitMem"
  | IntError -> "IntError"
  | MemError -> "MemError"
  | PointerCmp -> "PointerCmp"
  | Line -> "LINE"
  | Misc -> "Misc."

type seeded_bug = {
  bug_id : string;
  category : bug_category;
  witness : string;             (* an input known to trigger the bug *)
  trigger : string -> bool;     (* does this input reach the bug? *)
  confirmed : bool;             (* modeled developer response *)
  fixed : bool;
  sanitizer_visible : Sanitizers.San.kind option;
      (* which sanitizer is expected to cover it (Table 6); checked by the
         harness, not assumed *)
}

type t = {
  pname : string;
  input_type : string;          (* Table 4 column *)
  version : string;
  paper_kloc : string;          (* the real project's size, for Table 4 *)
  program : Minic.Ast.program;
  seeds : string list;          (* initial fuzzing corpus *)
  bugs : seeded_bug list;
  normalize : Compdiff.Normalize.filter;
      (* per-target output post-processing (RQ5) *)
  nondeterministic : bool;      (* the RQ5 classification *)
  needs_buggy_compiler : bool;  (* MuJS: include the known-bad profile *)
}

let frontend (p : t) = Minic.frontend_exn p.program

let profiles_for (p : t) =
  if p.needs_buggy_compiler then Cdcompiler.Profiles.extended_with_buggy
  else Cdcompiler.Profiles.all

let loc (p : t) =
  (* lines of the rendered MiniC source, each ended by a newline *)
  let src = Minic.Pretty.program_to_string p.program in
  String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 src

let find_bug (p : t) (id : string) = List.find_opt (fun b -> b.bug_id = id) p.bugs
