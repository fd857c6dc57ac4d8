(* Tests for the effect-typed generator, the single-UB injector and the
   labeled-corpus driver.

   The injector invariant (per UB class): the clean twin is verdict-clean
   under [check_naive] across all ten profiles, and the injected twin is
   flagged with the matching ground-truth label. *)

(* [open QCheck] below shadows the [gen] library's root module with
   [QCheck.Gen]; bind what the property needs under stable names *)
module Corpus = Gen.Corpus

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let make_exn ?cls seed =
  match Gen.Corpus.make ?cls ~seed () with
  | Ok p -> p
  | Error m -> Alcotest.failf "pair generation failed: %s" m

(* --- generator --- *)

let test_gen_deterministic () =
  let src seed =
    Minic.Pretty.program_to_string (Gen.Effgen.generate ~seed).Gen.Effgen.prog
  in
  check_string "same seed, same program" (src 7) (src 7);
  check_bool "different seeds differ" true (src 7 <> src 8)

let test_gen_sites_recorded () =
  for seed = 0 to 19 do
    let r = Gen.Effgen.generate ~seed in
    check_bool "at least one injection site" true
      (List.length r.Gen.Effgen.sites >= 1)
  done

let test_gen_typechecks () =
  (* the generator emits source: every program must survive
     print -> parse -> typecheck *)
  for seed = 0 to 49 do
    let src =
      Minic.Pretty.program_to_string (Gen.Effgen.generate ~seed).Gen.Effgen.prog
    in
    match Minic.frontend_of_source src with
    | Ok _ -> ()
    | Error m -> Alcotest.failf "seed %d does not typecheck: %s\n%s" seed m src
  done

(* --- injector invariant, per class --- *)

let clean_under_naive (p : Gen.Corpus.pair) =
  let o = Compdiff.Oracle.create p.Gen.Corpus.clean_tp in
  List.for_all
    (fun input ->
      not (Compdiff.Oracle.is_divergence (Compdiff.Oracle.check_naive o ~input)))
    (Gen.Corpus.inputs_for p)

let injected_flagged (p : Gen.Corpus.pair) =
  Compdiff.Tools.diverges
    (Compdiff.Tools.check p.Gen.Corpus.inj_tp ~inputs:(Gen.Corpus.inputs_for p))

let test_class cls () =
  (* several seeds per class: site choice and surrounding program vary *)
  List.iter
    (fun seed ->
      let p = make_exn ~cls seed in
      check_bool "ground-truth class matches request" true
        (p.Gen.Corpus.cls = cls);
      check_bool "ground-truth line recovered" true (p.Gen.Corpus.line > 0);
      check_bool "clean twin verdict-clean under check_naive" true
        (clean_under_naive p);
      check_bool "injected twin flagged by the oracle" true
        (injected_flagged p))
    [ 11; 23; 37 ]

(* the sanitizer models must see exactly the classes they are built to
   see: per-operation arithmetic (UBSan), branch-on-uninit (MSan),
   redzone access (ASan) *)
let san_detects kind (p : Gen.Corpus.pair) =
  List.exists Option.is_some
    (Sanitizers.San.reports kind (Sanitizers.San.build p.Gen.Corpus.inj_tp)
       ~inputs:(Gen.Corpus.inputs_for p))

let test_sanitizer_ground_truth () =
  let p cls = make_exn ~cls 41 in
  check_bool "UBSan sees the injected overflow" true
    (san_detects Sanitizers.San.Ubsan (p Gen.Inject.Overflow));
  check_bool "UBSan sees the injected zero division" true
    (san_detects Sanitizers.San.Ubsan (p Gen.Inject.Divzero));
  check_bool "MSan sees the injected uninit branch" true
    (san_detects Sanitizers.San.Msan (p Gen.Inject.Uninit));
  check_bool "ASan sees the injected OOB read" true
    (san_detects Sanitizers.San.Asan (p Gen.Inject.Oob))

let test_single_defect () =
  (* the clean twin carries no injected code; the injected twin differs
     only at the defect *)
  let p = make_exn ~cls:Gen.Inject.Uninit 53 in
  check_bool "clean source has no injected code" false
    (contains p.Gen.Corpus.clean_src "inj_");
  check_bool "injected source has the defect" true
    (contains p.Gen.Corpus.inj_src "inj_u")

(* --- corpus driver --- *)

let test_corpus_report () =
  let pairs =
    List.filter_map
      (fun seed -> Result.to_option (Gen.Corpus.make ~seed ()))
      (List.init 10 (fun i -> i))
  in
  check_int "all pairs generated" 10 (List.length pairs);
  let evals = Gen.Corpus.evaluate pairs in
  let r = Gen.Corpus.report evals in
  check_int "no clean-twin divergences" 0 r.Gen.Corpus.clean_divergences;
  let oracle = List.assoc "CompDiff" r.Gen.Corpus.rows in
  check_int "oracle has no false positives" 0 oracle.Gen.Corpus.fp;
  check_bool "oracle detects the injected defects" true
    (oracle.Gen.Corpus.tp >= 8);
  (* the rendered table carries every tool row *)
  let s = Gen.Corpus.report_to_string r in
  List.iter
    (fun name -> check_bool (name ^ " row present") true (contains s name))
    [ "CompDiff"; "ASan"; "UBSan"; "MSan" ]

let test_naive_agrees () =
  List.iter
    (fun seed ->
      check_bool "session and naive oracle verdicts agree" true
        (Gen.Corpus.naive_agrees (make_exn seed)))
    [ 3; 14 ]

(* generated programs as structured fuzzer seeds: the CompDiff-AFL++
   campaign on an injected twin must find the planted divergence *)
let test_fuzz_integration () =
  let p = make_exn ~cls:Gen.Inject.Overflow 61 in
  check_bool "fuzzer finds the injected divergence" true
    (Gen.Corpus.fuzz_divergence ~max_execs:200 p)

(* --- property: generator soundness over random seeds --- *)

let gen_props =
  let open QCheck in
  [
    Test.make ~name:"clean twins are UB-free by construction" ~count:12
      (int_range 0 100_000) (fun seed ->
        match Corpus.make ~seed () with
        | Error _ -> false
        | Ok p ->
          let o = Compdiff.Oracle.create p.Corpus.clean_tp in
          not
            (Compdiff.Oracle.is_divergence
               (Compdiff.Oracle.check_naive o ~input:"")));
  ]

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "gen.effgen",
      [
        tc "deterministic" test_gen_deterministic;
        tc "sites recorded" test_gen_sites_recorded;
        tc "typechecks through source" test_gen_typechecks;
      ] );
    ( "gen.inject",
      [
        tc "signed-overflow" (test_class Gen.Inject.Overflow);
        tc "uninit-read" (test_class Gen.Inject.Uninit);
        tc "oob-index" (test_class Gen.Inject.Oob);
        tc "ptr-compare" (test_class Gen.Inject.Ptrcmp);
        tc "div-by-zero" (test_class Gen.Inject.Divzero);
        tc "sanitizer ground truth" test_sanitizer_ground_truth;
        tc "single defect" test_single_defect;
      ] );
    ( "gen.corpus",
      [
        tc "report" test_corpus_report;
        tc "naive agrees" test_naive_agrees;
        tc "fuzz integration" test_fuzz_integration;
      ]
      @ List.map QCheck_alcotest.to_alcotest gen_props );
  ]
