(* Tests for the metamorphic meta-checker: the typed-AST mapper and
   erasure, both transformation families, and the driver that turns the
   oracle on the sanitizers and static analyzers. *)

open Cdcompiler

let fe src =
  match Minic.frontend_of_source src with
  | Ok tp -> tp
  | Error msg -> Alcotest.failf "front end: %s" msg

let pp = Minic.Pretty.tprogram_to_string

(* the canonical eval-order seed: the oracle diverges (argument
   evaluation order), every sanitizer is silent *)
let evalorder_src =
  "int *addr_string(int v) {\n\
   \  static int buffer[8];\n\
   \  buffer[0] = 48 + v;\n\
   \  buffer[1] = 0;\n\
   \  return buffer;\n\
   }\n\
   int main() {\n\
   \  print(\"who-is %s tell %s\\n\", addr_string(1), addr_string(2));\n\
   \  return 0;\n\
   }"

(* UB-free reference program exercising loops, arithmetic and arrays *)
let clean_src =
  "int sum(int n) {\n\
   \  int acc = 0;\n\
   \  int i = 0;\n\
   \  while (i < n) {\n\
   \    acc = acc + i;\n\
   \    i = i + 1;\n\
   \  }\n\
   \  return acc;\n\
   }\n\
   int main() {\n\
   \  int a[4];\n\
   \  int k = 0;\n\
   \  while (k < 4) {\n\
   \    a[k] = sum(k);\n\
   \    k = k + 1;\n\
   \  }\n\
   \  print(\"%d %d %d %d\\n\", a[0], a[1], a[2], a[3]);\n\
   \  return 0;\n\
   }"

(* --- mapper and erasure --- *)

let test_mapper_identity () =
  List.iter
    (fun src ->
      let tp = fe src in
      let tp' = Minic.Tast.map_program Minic.Tast.default_mapper tp in
      Alcotest.(check string) "identity map" (pp tp) (pp tp'))
    [ evalorder_src; clean_src ]

let test_erase_retypechecks () =
  List.iter
    (fun src ->
      let tp = fe src in
      match Minic.Typecheck.check_program_result (Minic.Tast.erase_program tp) with
      | Error msg -> Alcotest.failf "erased program rejected: %s" msg
      | Ok tp' -> Alcotest.(check string) "round trip is stable" (pp tp) (pp tp'))
    [ evalorder_src; clean_src ]

let test_erase_runs_identically () =
  let tp = fe clean_src in
  let tp' =
    match Minic.Typecheck.check_program_result (Minic.Tast.erase_program tp) with
    | Ok tp' -> tp'
    | Error msg -> Alcotest.failf "retype: %s" msg
  in
  List.iter
    (fun profile ->
      let run t =
        let u = Pipeline.compile profile t in
        let r =
          Cdvm.Exec.run
            ~config:{ Cdvm.Exec.default_config with input = ""; fuel = 200_000 }
            u
        in
        (r.Cdvm.Exec.stdout, r.Cdvm.Exec.status)
      in
      Alcotest.(check bool)
        (Printf.sprintf "identical behaviour under %s" profile.Policy.pname)
        true
        (run tp = run tp'))
    [ Profiles.gccx "O0"; Profiles.gccx "O3"; Profiles.clangx "O2" ]

(* --- preserving twins --- *)

let test_preserving_twins () =
  let tp = fe evalorder_src in
  let twins = Metacheck.Transform.preserving tp in
  Alcotest.(check bool)
    (Printf.sprintf "at least 5 preserving twins (got %d)" (List.length twins))
    true
    (List.length twins >= 5);
  let rules = List.sort_uniq compare (List.map (fun t -> t.Metacheck.Transform.tw_rule) twins) in
  Alcotest.(check bool)
    (Printf.sprintf "at least 3 rule families (got %s)" (String.concat "," rules))
    true
    (List.length rules >= 3);
  List.iter
    (fun (tw : Metacheck.Transform.twin) ->
      match
        Minic.Typecheck.check_program_result
          (Minic.Tast.erase_program tw.Metacheck.Transform.tw_prog)
      with
      | Ok _ -> ()
      | Error msg ->
        Alcotest.failf "twin %s@%d does not re-typecheck: %s"
          tw.Metacheck.Transform.tw_rule tw.Metacheck.Transform.tw_line msg)
    twins

let test_preserving_keeps_behaviour_on_clean () =
  (* on a UB-free program every implementation must behave byte-identically
     on every preserving twin *)
  let tp = fe clean_src in
  let twins = Metacheck.Transform.preserving ~limit_per_rule:2 tp in
  Alcotest.(check bool) "has twins" true (twins <> []);
  let observe t =
    List.map
      (fun profile ->
        let u = Pipeline.compile profile t in
        let r =
          Cdvm.Exec.run
            ~config:{ Cdvm.Exec.default_config with input = ""; fuel = 400_000 }
            u
        in
        (r.Cdvm.Exec.stdout, r.Cdvm.Exec.status))
      Profiles.all
  in
  let base = observe tp in
  List.iter
    (fun (tw : Metacheck.Transform.twin) ->
      match
        Minic.Typecheck.check_program_result
          (Minic.Tast.erase_program tw.Metacheck.Transform.tw_prog)
      with
      | Error msg -> Alcotest.failf "twin rejected: %s" msg
      | Ok tp' ->
        Alcotest.(check bool)
          (Printf.sprintf "twin %s@%d observations identical"
             tw.Metacheck.Transform.tw_rule tw.Metacheck.Transform.tw_line)
          true
          (observe tp' = base))
    twins

(* --- eliminating twins --- *)

let san_detects kind tp ~inputs =
  List.exists Option.is_some
    (Sanitizers.San.reports kind (Sanitizers.San.build tp) ~inputs)

let div_src =
  "int main() {\n\
   \  int a = getchar();\n\
   \  int b = getchar();\n\
   \  print(\"%d\\n\", a / (b - b));\n\
   \  return 0;\n\
   }"

let test_guard_div_silences_ubsan () =
  let tp = fe div_src in
  Alcotest.(check bool) "baseline UBSan fires" true
    (san_detects Sanitizers.San.Ubsan tp ~inputs:[ "AB" ]);
  let elims = Metacheck.Transform.eliminating tp in
  let guard =
    List.find_opt
      (fun e -> e.Metacheck.Transform.el_rule = "guard-div")
      elims
  in
  match guard with
  | None -> Alcotest.fail "guard-div produced no twin"
  | Some el ->
    Alcotest.(check bool) "complete" true el.Metacheck.Transform.el_complete;
    let tp' =
      match
        Minic.Typecheck.check_program_result
          (Minic.Tast.erase_program el.Metacheck.Transform.el_prog)
      with
      | Ok tp' -> tp'
      | Error msg -> Alcotest.failf "twin rejected: %s" msg
    in
    Alcotest.(check bool) "UBSan silent on guarded twin" false
      (san_detects Sanitizers.San.Ubsan tp' ~inputs:[ "AB" ])

let uninit_src =
  "int main() {\n\
   \  int l;\n\
   \  int c = getchar();\n\
   \  if (c > 64) { l = c; }\n\
   \  if (l > 0) { print(\"pos\\n\"); }\n\
   \  return 0;\n\
   }"

let test_init_decl_silences_msan () =
  let tp = fe uninit_src in
  Alcotest.(check bool) "baseline MSan fires" true
    (san_detects Sanitizers.San.Msan tp ~inputs:[ "" ]);
  let elims = Metacheck.Transform.eliminating tp in
  match
    List.find_opt (fun e -> e.Metacheck.Transform.el_rule = "init-decl") elims
  with
  | None -> Alcotest.fail "init-decl produced no twin"
  | Some el ->
    let tp' =
      match
        Minic.Typecheck.check_program_result
          (Minic.Tast.erase_program el.Metacheck.Transform.el_prog)
      with
      | Ok tp' -> tp'
      | Error msg -> Alcotest.failf "twin rejected: %s" msg
    in
    Alcotest.(check bool) "MSan silent on initialized twin" false
      (san_detects Sanitizers.San.Msan tp' ~inputs:[ "" ])

(* --- driver --- *)

let test_driver_xval_fn () =
  (* eval-order seed: oracle diverges, sanitizers silent -> the driver
     must cross-validate a sanitizer FN *)
  let tp = fe evalorder_src in
  let r =
    Metacheck.Driver.analyze_naive ~limit:1 ~name:"evalorder" tp ~inputs:[ "" ]
  in
  Alcotest.(check (list (pair string string))) "all twins re-typecheck" []
    r.Metacheck.Driver.mc_retype_failures;
  Alcotest.(check bool) "oracle diverges at baseline" true
    (r.Metacheck.Driver.mc_baseline.Metacheck.Driver.v_oracle <> []);
  let xval =
    List.filter
      (fun f -> f.Metacheck.Driver.fl_what = Metacheck.Driver.Xval_fn)
      r.Metacheck.Driver.mc_flags
  in
  Alcotest.(check int) "one cross-validated FN per sanitizer" 3
    (List.length xval)

let test_driver_fp_on_guarded_div () =
  (* constant-zero divisor: Cppcheck-like pattern-matches the division
     inside the guard-div twin's conditional and keeps reporting -- a
     metamorphically exposed FP *)
  let tp = fe div_src in
  let r =
    Metacheck.Driver.analyze_naive ~limit:1 ~name:"div" tp ~inputs:[ "AB" ]
  in
  Alcotest.(check (list (pair string string))) "all twins re-typecheck" []
    r.Metacheck.Driver.mc_retype_failures;
  let fps =
    List.filter
      (fun f -> f.Metacheck.Driver.fl_what = Metacheck.Driver.Fp)
      r.Metacheck.Driver.mc_flags
  in
  Alcotest.(check bool) "at least one FP flagged" true (fps <> [])

let test_driver_batched_equals_naive () =
  let tp = fe div_src in
  let naive =
    Metacheck.Driver.analyze_naive ~limit:1 ~name:"div" tp ~inputs:[ "AB" ]
  in
  let batched =
    Metacheck.Driver.analyze ~limit:1 ~name:"div" tp ~inputs:[ "AB" ]
  in
  Alcotest.(check string) "batched and naive flags agree"
    (Metacheck.Driver.essence naive)
    (Metacheck.Driver.essence batched)

(* --- QCheck property: preserving transforms are invisible on UB-free
   programs (Juliet "good" variants) --- *)

let qcheck_preserving_on_good =
  let cases = Juliet.Suite.quick ~per_cwe:1 () in
  let profiles =
    [ Profiles.gccx "O0"; Profiles.gccx "O2"; Profiles.clangx "O3" ]
  in
  QCheck.Test.make ~name:"preserving twins: retypecheck + identical runs on good"
    ~count:10
    QCheck.(int_range 0 (List.length cases - 1))
    (fun i ->
      let case = List.nth cases i in
      let tp = Juliet.Testcase.frontend_good case in
      let inputs = case.Juliet.Testcase.inputs in
      let observe t =
        List.map
          (fun profile ->
            let u = Pipeline.compile profile t in
            List.map
              (fun input ->
                let r =
                  Cdvm.Exec.run
                    ~config:
                      { Cdvm.Exec.default_config with input; fuel = 400_000 }
                    u
                in
                (r.Cdvm.Exec.stdout, r.Cdvm.Exec.status))
              inputs)
          profiles
      in
      let base = observe tp in
      List.for_all
        (fun (tw : Metacheck.Transform.twin) ->
          match
            Minic.Typecheck.check_program_result
              (Minic.Tast.erase_program tw.Metacheck.Transform.tw_prog)
          with
          | Error _ -> false
          | Ok tp' -> observe tp' = base)
        (Metacheck.Transform.preserving ~limit_per_rule:1 tp))

let suites =
  [
    ( "metacheck.tast",
      [
        Alcotest.test_case "mapper identity" `Quick test_mapper_identity;
        Alcotest.test_case "erase re-typechecks" `Quick test_erase_retypechecks;
        Alcotest.test_case "erase runs identically" `Quick
          test_erase_runs_identically;
      ] );
    ( "metacheck.transform",
      [
        Alcotest.test_case "preserving twins" `Quick test_preserving_twins;
        Alcotest.test_case "preserving keeps behaviour" `Slow
          test_preserving_keeps_behaviour_on_clean;
        Alcotest.test_case "guard-div silences UBSan" `Quick
          test_guard_div_silences_ubsan;
        Alcotest.test_case "init-decl silences MSan" `Quick
          test_init_decl_silences_msan;
      ] );
    ( "metacheck.driver",
      [
        Alcotest.test_case "cross-validated sanitizer FN" `Slow
          test_driver_xval_fn;
        Alcotest.test_case "FP on guarded division" `Slow
          test_driver_fp_on_guarded_div;
        Alcotest.test_case "batched equals naive" `Slow
          test_driver_batched_equals_naive;
      ] );
    ( "metacheck.property",
      [ QCheck_alcotest.to_alcotest qcheck_preserving_on_good ] );
  ]
