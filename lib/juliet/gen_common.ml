(* Shared machinery for the CWE test-case generators.

   Every generator is deterministic: variant [index] of a CWE derives its
   randomness from [rng_for], so the whole suite is a pure function of the
   CWE table. Shapes rotate through data-flow wrappers (direct, through a
   helper function, through a loop) and sinks (value printed vs dead) the
   same way Juliet's flow variants do. *)

open Minic.Builder

let rng_for ~cwe ~index = Cdutil.Rng.create (Cdutil.Rng.mix (cwe * 7919) index)

(* sizes that differ across variants but stay small enough for the VM *)
let small_size rng = Cdutil.Rng.int_in rng 4 12

(* a value that obviously depends on the variant, for varied constants *)
let salt rng = Cdutil.Rng.int_in rng 1 99

(* --- sinks --- *)

(* print an int-typed expression: the canonical output-propagating sink
   (Juliet's printIntLine) *)
let sink_print e = print "value: %d\n" [ e ]

(* consume a value without output: erroneous state does not propagate *)
let sink_dead name e = decl Minic.Ast.Tint name ~init:e

(* --- misc --- *)

let null_ptr = cast (Minic.Ast.Tptr Minic.Ast.Tint) (int 0)

(* standard main wrapper calling a single test function *)
let with_test_func ?(globals = []) ?(helpers = []) body =
  program ~globals
    (helpers
    @ [
        func Minic.Ast.Tint "test_case" body;
        func Minic.Ast.Tint "main"
          [ expr (call "test_case" []); ret (int 0) ];
      ])
