(* Golden results of the tool evaluation.

   Table 3 (Juliet), the labeled corpus and the meta-checker all run
   the four static analyzers, the three sanitizers and the oracle and
   reduce what they report to their own tables.  These tests pin those
   tables on fixed samples, so a change to how any of the seven tools
   or the oracle is run that moves one verdict fails here first:
   - Table 3's rows and Finding 5's false-positive counts for
     [Suite.quick ~per_cwe:2];
   - the labeled-corpus report for generator seeds 0-49;
   - the meta-checker's {!Metacheck.Driver.essence} for the six-CWE
     sample of the metacheck bench section. *)

let juliet_table () =
  let session = Engine.Session.create ~cache_mb:64 () in
  let evals =
    Juliet.Eval.evaluate_suite ~session (Juliet.Suite.quick ~per_cwe:2 ())
  in
  let b = Buffer.create 2048 in
  let pair (d, f) = Printf.sprintf "%.6f/%.6f" d f in
  List.iter
    (fun (r : Juliet.Eval.row) ->
      Printf.bprintf b "%s|%d|%s|%s|%s|%s|%.6f|%.6f|%.6f|%.6f|%.6f|%d|%.6f\n"
        r.Juliet.Eval.label r.Juliet.Eval.total
        (pair r.Juliet.Eval.r_coverity)
        (pair r.Juliet.Eval.r_cppcheck)
        (pair r.Juliet.Eval.r_infer)
        (pair r.Juliet.Eval.r_unstable)
        r.Juliet.Eval.r_asan r.Juliet.Eval.r_ubsan r.Juliet.Eval.r_msan
        r.Juliet.Eval.r_san_total r.Juliet.Eval.r_compdiff
        r.Juliet.Eval.unique r.Juliet.Eval.r_reduction)
    (Juliet.Eval.aggregate evals);
  List.iter
    (fun (name, n) -> Printf.bprintf b "fp %s %d\n" name n)
    (Juliet.Eval.false_positive_counts evals);
  Buffer.contents b

let corpus_report () =
  let made = List.init 50 (fun seed -> Gen.Corpus.make ~seed ()) in
  let pairs = List.filter_map Result.to_option made in
  let session = Engine.Session.create ~cache_mb:64 () in
  Gen.Corpus.report_to_string
    (Gen.Corpus.report
       ~gen_failures:(List.length made - List.length pairs)
       (Gen.Corpus.evaluate ~session pairs))

let metacheck_essence () =
  let session = Engine.Session.create ~cache_mb:64 () in
  String.concat "\n"
    (List.filter_map
       (fun (t : Juliet.Testcase.t) ->
         if List.mem t.Juliet.Testcase.cwe [ 190; 369; 457; 476; 121; 758 ]
         then
           Some
             (Metacheck.Driver.essence
                (Metacheck.Driver.analyze ~session ~limit:2
                   ~name:t.Juliet.Testcase.name
                   (Juliet.Testcase.frontend_bad t)
                   ~inputs:t.Juliet.Testcase.inputs))
         else None)
       (Juliet.Suite.quick ~per_cwe:1 ()))

let pinned_juliet =
  "121~127,415,416,590 Memory error|16|0.750000/0.000000|0.500000/0.000000|0.625000/0.444444|0.875000/0.000000|1.000000|0.000000|0.000000|1.000000|0.750000|0|0.000000\n\
   475 UB for input to API|2|1.000000/0.000000|1.000000/0.000000|0.000000/0.000000|1.000000/0.000000|0.000000|0.000000|0.000000|0.000000|1.000000|2|0.000000\n\
   588 Bad struct. pointer|2|0.000000/0.000000|0.000000/0.000000|0.000000/0.000000|1.000000/0.000000|0.500000|0.000000|0.000000|0.500000|1.000000|1|0.000000\n\
   685 Bad function call|2|1.000000/0.000000|0.500000/0.000000|0.000000/0.000000|0.000000/0.000000|0.000000|0.000000|0.000000|0.000000|1.000000|2|0.000000\n\
   758 UB|2|0.500000/0.000000|0.500000/0.000000|0.000000/0.000000|0.500000/0.000000|0.000000|1.000000|0.000000|1.000000|0.500000|0|1.000000\n\
   190,191,680 Integer error|6|0.500000/0.000000|0.000000/0.000000|0.000000/0.000000|1.000000/0.000000|0.166667|0.833333|0.000000|0.833333|0.166667|0|1.000000\n\
   369 Divide by zero|2|1.000000/0.500000|0.000000/0.000000|0.000000/0.000000|0.000000/0.000000|0.000000|1.000000|0.000000|1.000000|0.000000|0|0.000000\n\
   476 Null pointer deref.|2|1.000000/0.000000|0.000000/0.000000|1.000000/0.000000|1.000000/0.000000|0.000000|1.000000|0.000000|1.000000|1.000000|0|0.000000\n\
   457,665 Uninitialized memory|4|0.500000/0.000000|0.500000/0.000000|0.000000/0.000000|1.000000/0.000000|0.000000|0.000000|0.000000|0.000000|1.000000|4|0.000000\n\
   469 UB of pointer Sub.|2|0.000000/0.000000|0.000000/0.000000|0.000000/0.000000|1.000000/0.000000|0.000000|0.000000|0.000000|0.000000|1.000000|2|0.000000\n\
   fp ASan 0\n\
   fp UBSan 0\n\
   fp MSan 0\n\
   fp CompDiff 0\n"

let pinned_corpus =
  "labeled corpus: 50 pairs (typecheck failures: 0)\n\
   clean-twin divergences: 0\n\
   \n\
   tool                TP    FP    FN     det%\n\
   CompDiff            50     0     0   100.0%\n\
   ASan                10     0    40    20.0%\n\
   UBSan               20     0    30    40.0%\n\
   MSan                10     0    40    20.0%\n\
   Coverity-like       30     2    20    60.0%\n\
   Cppcheck-like       20     0    30    40.0%\n\
   Infer-like           0     0    50     0.0%\n\
   UnstableCheck       50     1     0   100.0%\n\
   \n\
   per-class (CompDiff):\n\
   \ \ signed-overflow  10/10 detected\n\
   \ \ uninit-read      10/10 detected\n\
   \ \ oob-index        10/10 detected\n\
   \ \ ptr-compare      10/10 detected\n\
   \ \ div-by-zero      10/10 detected\n"

let pinned_metacheck =
  "CWE121_v00 p=7 e=2 fail=0\n\
   Coverity-like|dead-branch|drift|[Coverity-like] undefined-behavior at line 2 appeared under dead-branch\n\
   UnstableCheck|arith-identity|drift|[UnstableCheck] memory-error at line 11 appeared under arith-identity\n\
   CWE758_v00 p=2 e=0 fail=0\n\
   Coverity-like|dead-branch|drift|[Coverity-like] undefined-behavior at line 2 appeared under dead-branch\n\
   CWE190_v00 p=2 e=1 fail=0\n\
   Coverity-like|dead-branch|drift|[Coverity-like] undefined-behavior at line 2 appeared under dead-branch\n\
   UnstableCheck|saturate-arith|FP|[UnstableCheck] integer-error at line 3 survives saturate-arith at a rewritten site\n\
   CWE369_v00 p=3 e=1 fail=0\n\
   Coverity-like|dead-branch|drift|[Coverity-like] undefined-behavior at line 2 appeared under dead-branch\n\
   Coverity-like|guard-div|FP|[Coverity-like] division-by-zero at line 3 survives guard-div at a rewritten site\n\
   CWE476_v00 p=5 e=1 fail=0\n\
   CompDiff|dead-branch|FN-instability|divergence vanished under dead-branch on input \"\"\n\
   CWE457_v00 p=2 e=1 fail=0\n\
   ASan|baseline|cross-validated FN|oracle diverges (input \"\", class 20cc1007) with no sanitizer report\n\
   UBSan|baseline|cross-validated FN|oracle diverges (input \"\", class 20cc1007) with no sanitizer report\n\
   MSan|baseline|cross-validated FN|oracle diverges (input \"\", class 20cc1007) with no sanitizer report\n\
   Cppcheck-like|dead-branch|FN-instability|[Cppcheck-like] uninitialized-use at line 3 vanished under dead-branch\n\
   Coverity-like|dead-branch|drift|[Coverity-like] undefined-behavior at line 2 appeared under dead-branch"


let suites =
  [
    ( "golden.tools",
      [
        Alcotest.test_case "Table 3 rows, quick per_cwe 2" `Quick (fun () ->
            Alcotest.(check string) "rows" pinned_juliet (juliet_table ()));
        Alcotest.test_case "corpus report, seeds 0-49" `Quick (fun () ->
            Alcotest.(check string) "report" pinned_corpus (corpus_report ()));
        Alcotest.test_case "metacheck essence, six CWEs" `Quick (fun () ->
            Alcotest.(check string) "essence" pinned_metacheck
              (metacheck_essence ()));
      ] );
  ]
