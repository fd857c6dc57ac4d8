(* Test entry point: each [Suite_*] module contributes alcotest suites. *)

let () =
  Alcotest.run "compdiff"
    (Suite_util.suites @ Suite_minic.suites @ Suite_compiler.suites
   @ Suite_sanitizers.suites @ Suite_engine.suites @ Suite_compdiff.suites
   @ Suite_static.suites @ Suite_fuzz.suites @ Suite_reduce.suites
   @ Suite_juliet.suites @ Suite_projects.suites @ Suite_vm.suites
   @ Suite_passes.suites @ Suite_frontend_fuzz.suites
   @ Suite_metacheck.suites @ Suite_serve.suites @ Suite_gen.suites
   @ Suite_trace.suites @ Suite_wire.suites @ Suite_golden.suites
   @ Suite_golden_localize.suites @ Suite_golden_reduce.suites)
