(* Tests for the sanitizer models: each detects its specialty, stays
   silent on clean programs, and exhibits its documented gaps. *)

open Sanitizers

let frontend src =
  match Minic.frontend_of_source src with
  | Ok tp -> tp
  | Error msg -> Alcotest.failf "front end: %s" msg

let detects kind src inputs =
  List.exists Option.is_some (San.reports kind (San.build (frontend src)) ~inputs)

let check_detect name kind src inputs =
  Alcotest.(check bool) name true (detects kind src inputs)

let check_silent name kind src inputs =
  Alcotest.(check bool) name false (detects kind src inputs)

(* --- ASan --- *)

let test_asan_heap_overflow () =
  check_detect "heap overflow" San.Asan
    "int main() { int *p = malloc(4); p[4] = 1; free(p); return 0; }" [ "" ]

let test_asan_heap_underflow () =
  check_detect "heap underflow" San.Asan
    "int main() { int *p = malloc(4); p[0 - 1] = 1; free(p); return 0; }" [ "" ]

let test_asan_stack_overflow () =
  check_detect "stack buffer overflow" San.Asan
    "int main() { int a[4]; a[5] = 1; return a[0]; }" [ "" ]

let test_asan_global_overflow () =
  check_detect "global buffer overflow" San.Asan
    "int g[4];\nint main() { g[4] = 1; return 0; }" [ "" ]

let test_asan_uaf () =
  check_detect "use after free" San.Asan
    "int main() { int *p = malloc(4); p[0] = 1; free(p); return p[0]; }" [ "" ]

let test_asan_double_free () =
  check_detect "double free" San.Asan
    "int main() { int *p = malloc(4); free(p); free(p); return 0; }" [ "" ]

let test_asan_invalid_free () =
  check_detect "invalid free" San.Asan
    "int main() { int x; int *p = &x; free(p); return 0; }" [ "" ]

let test_asan_clean_silent () =
  check_silent "clean program" San.Asan
    "int main() { int *p = malloc(4); p[0] = 1; p[3] = 2; int s = p[0] + p[3]; free(p); return s; }"
    [ "" ]

let test_asan_misses_far_oob () =
  (* a jump clear over the redzone into a neighbouring object *)
  check_silent "far OOB into valid object missed" San.Asan
    "int a[4];\nint b[100];\nint main() { a[40] = 7; return 0; }" [ "" ]

let test_asan_misses_uninit () =
  check_silent "uninit is out of ASan scope" San.Asan
    "int main() { int x; if (getchar() == 65) { x = 1; } print(\"%d\\n\", x); return 0; }"
    [ "" ]

(* --- UBSan --- *)

let test_ubsan_add_overflow () =
  check_detect "add overflow" San.Ubsan
    "int main() { int x = 2147483647; int y = getchar(); return x + y; }" [ "A" ]

let test_ubsan_mul_overflow () =
  check_detect "mul overflow" San.Ubsan
    "int main() { int a = getchar() * 1000; int b = a * a; return b; }" [ "d" ]

let test_ubsan_div_zero () =
  check_detect "division by zero" San.Ubsan
    "int main() { int z = getchar() - 65; return 7 / z; }" [ "A" ]

let test_ubsan_intmin_div () =
  check_detect "INT_MIN / -1" San.Ubsan
    "int main() { int m = -2147483647 - 1; int d = getchar() - 66; return m / d; }"
    [ "A" ]

let test_ubsan_shift_range () =
  check_detect "shift out of range" San.Ubsan
    "int main() { int s = getchar() - 33; return 1 << s; }" [ "A" ]

let test_ubsan_shift_negative () =
  check_detect "left shift of negative" San.Ubsan
    "int main() { int v = 65 - getchar() - 1; return v << 2; }" [ "B" ]

let test_ubsan_null_deref () =
  check_detect "null deref" San.Ubsan
    "int main() { int *p = (int *) 0; return *p; }" [ "" ]

let test_ubsan_clean_silent () =
  check_silent "clean arithmetic" San.Ubsan
    "int main() { int a = getchar(); int b = a * a; return (b / (a + 1)) << 2; }"
    [ "A" ]

let test_ubsan_misses_memory () =
  check_silent "memory errors out of UBSan scope" San.Ubsan
    "int main() { int *p = malloc(4); p[4] = 1; return 0; }" [ "" ]

let test_ubsan_misses_evalorder () =
  check_silent "eval order out of UBSan scope" San.Ubsan
    "int *f(int v) { static int b[4]; b[0] = v; return b; }\n\
     int main() { print(\"%d %d\\n\", f(1)[0], f(2)[0]); return 0; }" [ "" ]

(* --- MSan --- *)

let test_msan_branch_on_uninit () =
  check_detect "branch on uninit" San.Msan
    "int main() { int x; if (x > 0) { print(\"pos\\n\"); } return 0; }" [ "" ]

let test_msan_uninit_heap_branch () =
  check_detect "branch on uninit heap" San.Msan
    "int main() { int *p = malloc(4); if (p[2] > 0) { print(\"y\\n\"); } free(p); return 0; }"
    [ "" ]

let test_msan_misses_printed_uninit () =
  (* the Listing 4 gap: merely printing an uninitialized value *)
  check_silent "printed uninit missed (exiv2 case)" San.Msan
    "int main() { int l; print(\"%d\\n\", l); return 0; }" [ "" ]

let test_msan_clean_silent () =
  check_silent "fully initialized" San.Msan
    "int main() { int x = getchar(); if (x > 0) { print(\"%d\\n\", x); } return 0; }"
    [ "A" ]

let test_msan_initialized_via_pointer () =
  check_silent "init through pointer" San.Msan
    "void init(int *p) { *p = 5; }\n\
     int main() { int x; init(&x); if (x > 3) { print(\"ok\\n\"); } return 0; }"
    [ "" ]

let test_msan_taint_propagates () =
  check_detect "taint flows through arithmetic" San.Msan
    "int main() { int x; int y = x + 1; int z = y * 2; if (z > 0) { print(\"p\\n\"); } return 0; }"
    [ "" ]

(* cross-check: each sanitizer is silent where another reports *)
let test_scopes_disjoint () =
  let uaf = "int main() { int *p = malloc(4); p[0] = 1; free(p); return p[0]; }" in
  Alcotest.(check bool) "MSan silent on UAF" false (detects San.Msan uaf [ "" ]);
  let ovf = "int main() { int x = 2147483647; return x + getchar(); }" in
  Alcotest.(check bool) "ASan silent on overflow" false (detects San.Asan ovf [ "A" ])

(* --- verdict edges ---

   Exact boundaries of each sanitizer's detection, pinned down so the
   metamorphic meta-checker's verdict extraction can rely on them. *)

let test_asan_one_past_end_boundary () =
  check_silent "last element is in bounds" San.Asan
    "int main() { int a[4]; a[3] = 1; return 0; }" [ "" ];
  check_detect "one past the end is out" San.Asan
    "int main() { int a[4]; a[4] = 1; return 0; }" [ "" ]

(* shift exponent fed from input so no pass can fold the site away *)
let shift32_src =
  "int main() { int w = getchar(); print(\"%d\\n\", 1 << w); return 0; }"

let shift64_src =
  "int main() { int w = getchar(); print(\"%ld\\n\", 1L << w); return 0; }"

let test_ubsan_shift_width_edges () =
  (* int is 32-bit: exponent 30 legal, 31 overflows 1<<31, 32 out of range,
     EOF (-1) negative *)
  check_silent "1 << 30 legal" San.Ubsan shift32_src [ "\x1e" ];
  check_detect "1 << 31 overflows int" San.Ubsan shift32_src [ "\x1f" ];
  check_detect "1 << 32 out of range" San.Ubsan shift32_src [ "\x20" ];
  check_detect "negative exponent" San.Ubsan shift32_src [ "" ]

let test_ubsan_shift_long_edges () =
  (* long is 64-bit: the int-illegal exponent 32 is legal, 63 overflows,
     64 out of range *)
  check_silent "1L << 32 legal" San.Ubsan shift64_src [ "\x20" ];
  check_detect "1L << 63 overflows long" San.Ubsan shift64_src [ "\x3f" ];
  check_detect "1L << 64 out of range" San.Ubsan shift64_src [ "\x40" ]

let test_msan_partial_array_init () =
  check_detect "uninitialized element of a partly written array" San.Msan
    "int main() { int a[2]; a[0] = 1; if (a[1] > 0) { print(\"y\\n\"); } return 0; }"
    [ "" ]

let test_msan_overwrite_clears_taint () =
  check_silent "write clears the taint" San.Msan
    "int main() { int x; x = 3; if (x > 1) { print(\"y\\n\"); } return 0; }" [ "" ]

let test_reports_edges () =
  let b = San.build (frontend shift32_src) in
  (match San.reports San.Ubsan b ~inputs:[ "\x20" ] with
  | [ Some msg ] ->
    Alcotest.(check bool) "out-of-range message mentions the exponent" true
      (let has sub =
         let n = String.length msg and m = String.length sub in
         let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
         go 0
       in
       has "shift")
  | _ -> Alcotest.fail "expected a UBSan report for 1 << 32");
  Alcotest.(check bool) "silent run yields no report" true
    (San.reports San.Ubsan b ~inputs:[ "\x1e" ] = [ None ]);
  Alcotest.(check bool) "one entry per input, in input order" true
    (match San.reports San.Ubsan b ~inputs:[ "\x1e"; "\x20"; "\x1e" ] with
     | [ None; Some _; None ] -> true
     | _ -> false)

(* [San.reports] runs an input set as one batch: each input's report
   must be the one a run of it alone gives, here a hand-built
   [Exec.run_linked] with the same hooks on the same unoptimized image,
   over the Juliet quick suite (bad and good variants) and the 23
   targets' seeds, under every sanitizer *)
let test_reports_equal_single_runs () =
  let alone kind img ~fuel input =
    match
      (Cdvm.Exec.run_linked
         ~config:
           {
             Cdvm.Exec.default_config with
             Cdvm.Exec.input;
             fuel;
             observer = Cdvm.Observer.sanitize (San.hooks kind);
           }
         img)
        .Cdvm.Exec.status
    with
    | Cdvm.Trap.San_report msg -> Some msg
    | Cdvm.Trap.Exit _ | Cdvm.Trap.Trap _ | Cdvm.Trap.Hang -> None
  in
  let check name ~fuel tp inputs =
    let img = Cdvm.Image.link (Cdcompiler.Pipeline.compile San.build_profile tp) in
    let b = San.build tp in
    List.iter
      (fun kind ->
        Alcotest.(check (list (option string)))
          (Printf.sprintf "%s under %s" name (San.name kind))
          (List.map (alone kind img ~fuel) inputs)
          (San.reports ~fuel kind b ~inputs))
      San.all
  in
  List.iter
    (fun (t : Juliet.Testcase.t) ->
      let inputs = t.Juliet.Testcase.inputs in
      check (t.Juliet.Testcase.name ^ " bad") ~fuel:100_000
        (Juliet.Testcase.frontend_bad t) inputs;
      check (t.Juliet.Testcase.name ^ " good") ~fuel:100_000
        (Juliet.Testcase.frontend_good t) inputs)
    (Juliet.Suite.quick ());
  List.iter
    (fun (p : Projects.Project.t) ->
      check p.Projects.Project.pname ~fuel:60_000 (Projects.Project.frontend p)
        p.Projects.Project.seeds)
    Projects.Registry.all

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "sanitizers.asan",
      [
        tc "heap overflow" test_asan_heap_overflow;
        tc "heap underflow" test_asan_heap_underflow;
        tc "stack overflow" test_asan_stack_overflow;
        tc "global overflow" test_asan_global_overflow;
        tc "use after free" test_asan_uaf;
        tc "double free" test_asan_double_free;
        tc "invalid free" test_asan_invalid_free;
        tc "clean silent" test_asan_clean_silent;
        tc "far OOB gap" test_asan_misses_far_oob;
        tc "uninit out of scope" test_asan_misses_uninit;
      ] );
    ( "sanitizers.ubsan",
      [
        tc "add overflow" test_ubsan_add_overflow;
        tc "mul overflow" test_ubsan_mul_overflow;
        tc "div zero" test_ubsan_div_zero;
        tc "INT_MIN/-1" test_ubsan_intmin_div;
        tc "shift range" test_ubsan_shift_range;
        tc "shift negative" test_ubsan_shift_negative;
        tc "null deref" test_ubsan_null_deref;
        tc "clean silent" test_ubsan_clean_silent;
        tc "memory out of scope" test_ubsan_misses_memory;
        tc "eval order out of scope" test_ubsan_misses_evalorder;
      ] );
    ( "sanitizers.msan",
      [
        tc "branch on uninit" test_msan_branch_on_uninit;
        tc "uninit heap branch" test_msan_uninit_heap_branch;
        tc "printed uninit gap" test_msan_misses_printed_uninit;
        tc "clean silent" test_msan_clean_silent;
        tc "init via pointer" test_msan_initialized_via_pointer;
        tc "taint propagation" test_msan_taint_propagates;
      ] );
    ("sanitizers.scopes", [ tc "disjoint scopes" test_scopes_disjoint ]);
    ( "sanitizers.edges",
      [
        tc "asan one-past-end boundary" test_asan_one_past_end_boundary;
        tc "ubsan shift width (int)" test_ubsan_shift_width_edges;
        tc "ubsan shift width (long)" test_ubsan_shift_long_edges;
        tc "msan partial array init" test_msan_partial_array_init;
        tc "msan overwrite clears taint" test_msan_overwrite_clears_taint;
        tc "reports" test_reports_edges;
        tc "reports = single runs" test_reports_equal_single_runs;
      ] );
  ]
