(* Tests for the generated benchmark suite: every variant is well-formed,
   good variants are clean for every dynamic tool (the Finding 5
   invariant), and the per-category detection characteristics hold. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let quick_tests = lazy (Juliet.Suite.quick ~per_cwe:4 ())

let test_suite_size () =
  let full = Juliet.Suite.full () in
  check_bool "suite is near the scaled target" true
    (abs (List.length full - Juliet.Cwe.total_scaled) < 5);
  check_int "twenty CWE categories" 20
    (List.length (Juliet.Suite.count_by_cwe full))

let test_generation_deterministic () =
  let t1 = Juliet.Suite.generator_of_cwe 121 ~index:3 in
  let t2 = Juliet.Suite.generator_of_cwe 121 ~index:3 in
  Alcotest.(check string) "same program text"
    (Minic.Pretty.program_to_string t1.Juliet.Testcase.bad)
    (Minic.Pretty.program_to_string t2.Juliet.Testcase.bad)

let test_all_variants_frontend () =
  List.iter
    (fun (t : Juliet.Testcase.t) ->
      (try ignore (Juliet.Testcase.frontend_bad t)
       with e ->
         Alcotest.failf "%s bad variant rejected: %s" t.Juliet.Testcase.name
           (Printexc.to_string e));
      try ignore (Juliet.Testcase.frontend_good t)
      with e ->
        Alcotest.failf "%s good variant rejected: %s" t.Juliet.Testcase.name
          (Printexc.to_string e))
    (Lazy.force quick_tests)

let test_all_variants_compile_everywhere () =
  List.iter
    (fun (t : Juliet.Testcase.t) ->
      let tp = Juliet.Testcase.frontend_bad t in
      List.iter
        (fun p -> ignore (Cdcompiler.Pipeline.compile p tp))
        Cdcompiler.Profiles.all)
    (Lazy.force quick_tests)

let test_good_variants_clean () =
  List.iter
    (fun (t : Juliet.Testcase.t) ->
      let good = Juliet.Testcase.frontend_good t in
      check_bool
        (t.Juliet.Testcase.name ^ " good variant has no divergence")
        false
        (Compdiff.Tools.diverges
           (Compdiff.Tools.check ~fuel:100_000 good ~inputs:t.Juliet.Testcase.inputs));
      List.iter
        (fun kind ->
          check_bool
            (Printf.sprintf "%s good variant clean under %s" t.Juliet.Testcase.name
               (Sanitizers.San.name kind))
            false
            (List.exists Option.is_some
               (Sanitizers.San.reports kind (Sanitizers.San.build good)
                  ~inputs:t.Juliet.Testcase.inputs)))
        Sanitizers.San.all)
    (Lazy.force quick_tests)

(* category-level characteristics, on small samples *)
let eval_sample cwe count =
  List.map
    (fun i -> Juliet.Eval.evaluate (Juliet.Suite.generator_of_cwe cwe ~index:i))
    (List.init count (fun i -> i))

let test_469_compdiff_only () =
  List.iter
    (fun (e : Juliet.Eval.test_eval) ->
      check_bool "CompDiff detects CWE-469" true (fst e.Juliet.Eval.compdiff);
      check_bool "sanitizers silent on CWE-469" false
        (fst e.Juliet.Eval.asan || fst e.Juliet.Eval.ubsan || fst e.Juliet.Eval.msan))
    (eval_sample 469 4)

let test_590_compdiff_blind () =
  List.iter
    (fun (e : Juliet.Eval.test_eval) ->
      check_bool "CompDiff misses free-of-non-heap" false (fst e.Juliet.Eval.compdiff);
      check_bool "ASan catches free-of-non-heap" true (fst e.Juliet.Eval.asan))
    (eval_sample 590 4)

let test_475_memcpy_overlap () =
  List.iter
    (fun (e : Juliet.Eval.test_eval) ->
      check_bool "CompDiff detects overlap" true (fst e.Juliet.Eval.compdiff);
      check_bool "no sanitizer check exists" false
        (fst e.Juliet.Eval.asan || fst e.Juliet.Eval.ubsan || fst e.Juliet.Eval.msan))
    (eval_sample 475 2)

let test_457_msan_gap () =
  (* shape 0 prints the uninitialized value: CompDiff catches, MSan not *)
  let e = Juliet.Eval.evaluate (Juliet.Suite.generator_of_cwe 457 ~index:0) in
  check_bool "CompDiff" true (fst e.Juliet.Eval.compdiff);
  check_bool "MSan gap" false (fst e.Juliet.Eval.msan);
  (* shape 2 branches on it: MSan's slice *)
  let e2 = Juliet.Eval.evaluate (Juliet.Suite.generator_of_cwe 457 ~index:2) in
  check_bool "MSan branch slice" true (fst e2.Juliet.Eval.msan)

let test_partition_shape () =
  let e = Juliet.Eval.evaluate (Juliet.Suite.generator_of_cwe 457 ~index:0) in
  check_int "one class id per implementation" Juliet.Eval.nimpls
    (Array.length e.Juliet.Eval.partition);
  check_bool "detected bug spans >= 2 classes" true
    (Array.exists (fun c -> c <> e.Juliet.Eval.partition.(0)) e.Juliet.Eval.partition)

let test_aggregate_rows () =
  let evals = List.concat [ eval_sample 121 3; eval_sample 469 2; eval_sample 369 3 ] in
  let rows = Juliet.Eval.aggregate evals in
  check_int "all ten rows present" 10 (List.length rows);
  let mem_row = List.hd rows in
  check_int "memory row counts only its tests" 3 mem_row.Juliet.Eval.total

let test_parallel_validated_suite () =
  (* the pooled evaluator cross-validates every oracle verdict against
     the sequential naive reference; validate_oracle raises on mismatch *)
  let tests = Juliet.Suite.quick ~per_cwe:1 () in
  let evals = Juliet.Eval.evaluate_suite ~jobs:2 ~validate:true tests in
  check_int "one eval per test" (List.length tests) (List.length evals)

let tc name f = Alcotest.test_case name `Quick f


let suites =
  [
    ( "juliet.suite",
      [
        tc "scaled size" test_suite_size;
        tc "deterministic" test_generation_deterministic;
        tc "variants type-check" test_all_variants_frontend;
        tc "variants compile on all profiles" test_all_variants_compile_everywhere;
      ] );
    ("juliet.finding5", [ tc "good variants clean" test_good_variants_clean ]);
    ( "juliet.characteristics",
      [
        tc "469 CompDiff-only" test_469_compdiff_only;
        tc "590 CompDiff-blind" test_590_compdiff_blind;
        tc "475 overlap" test_475_memcpy_overlap;
        tc "457 MSan gap" test_457_msan_gap;
        tc "partition shape" test_partition_shape;
        tc "aggregation rows" test_aggregate_rows;
      ] );
    ( "juliet.parallel",
      [ tc "pooled suite cross-validates against naive" test_parallel_validated_suite ] );
  ]
