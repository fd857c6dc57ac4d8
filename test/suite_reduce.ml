(* Tests for the oracle-validated divergence reducer (paper §5). *)

let frontend src =
  match Minic.frontend_of_source src with
  | Ok tp -> tp
  | Error msg -> Alcotest.failf "front end: %s" msg

let parse src =
  match Minic.Parser.parse_program_result src with
  | Ok p -> p
  | Error msg -> Alcotest.failf "parse: %s" msg

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* an uninitialized read guarded by one input byte: diverging inputs
   carry lots of removable padding, the guard byte is all that matters *)
let guarded_uninit_src =
  "int main() {\n\
   \  int a = getchar();\n\
   \  int junk;\n\
   \  if (a == 85) { print(\"v=%d\\n\", junk); }\n\
   \  else { print(\"ok\\n\"); }\n\
   \  return 0;\n\
   }"

(* divergence on the very first byte read (no guard): the minimal
   reproducer is the empty input, since getchar returns -1 on EOF and
   the junk read happens unconditionally *)
let unconditional_uninit_src =
  "int main() {\n\
   \  int junk;\n\
   \  int tag = getchar();\n\
   \  print(\"%d\\n\", junk);\n\
   \  print(\"tag=%d\\n\", tag);\n\
   \  return 0;\n\
   }"

let diverging_obs oracle ~input =
  match Compdiff.Oracle.check oracle ~input with
  | Compdiff.Oracle.Diverge obs -> obs
  | Compdiff.Oracle.Agree _ -> Alcotest.failf "expected divergence on %S" input

let reduce_exn ?max_checks ?program ?reoracle oracle ~input =
  let obs = diverging_obs oracle ~input in
  match Compdiff.Reduce.reduce ?max_checks ?program ?reoracle oracle ~input obs with
  | Some r -> r
  | None -> Alcotest.fail "reduce returned None on a divergence"

(* --- invariants --- *)

let test_reduced_still_diverges () =
  let oracle = Compdiff.Oracle.create ~fuel:60_000 (frontend guarded_uninit_src) in
  let input = "U-and-a-lot-of-padding-bytes" in
  let r = reduce_exn oracle ~input in
  (* re-validate from scratch: the reduced input must diverge on its own *)
  let obs' = diverging_obs oracle ~input:r.Compdiff.Reduce.red_input in
  check_bool "reduced input still diverges" true (obs' <> [])

let test_reduce_preserves_class () =
  let oracle = Compdiff.Oracle.create ~fuel:60_000 (frontend guarded_uninit_src) in
  let input = "Upadding" in
  let obs = diverging_obs oracle ~input in
  let before = Compdiff.Reduce.class_of oracle ~input obs in
  let r = reduce_exn oracle ~input in
  let after =
    Compdiff.Reduce.class_of oracle ~input:r.Compdiff.Reduce.red_input
      r.Compdiff.Reduce.red_observations
  in
  check_int "same partition signature" before.Compdiff.Reduce.cls_signature
    after.Compdiff.Reduce.cls_signature;
  Alcotest.(check (option string))
    "same localized function"
    before.Compdiff.Reduce.cls_fn after.Compdiff.Reduce.cls_fn

let test_reduce_never_grows () =
  let oracle = Compdiff.Oracle.create ~fuel:60_000 (frontend guarded_uninit_src) in
  List.iter
    (fun input ->
      let r = reduce_exn oracle ~input in
      check_bool "input never grows" true
        (String.length r.Compdiff.Reduce.red_input <= String.length input);
      check_int "stats match input" (String.length input)
        r.Compdiff.Reduce.red_stats.Compdiff.Reduce.input_before;
      check_int "stats match reduced"
        (String.length r.Compdiff.Reduce.red_input)
        r.Compdiff.Reduce.red_stats.Compdiff.Reduce.input_after)
    [ "Uxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"; "U" ]

let test_reduce_strips_padding () =
  let oracle = Compdiff.Oracle.create ~fuel:60_000 (frontend guarded_uninit_src) in
  let input = "U" ^ String.make 63 'z' in
  let r = reduce_exn oracle ~input in
  (* only the guard byte matters; ddmin must strip essentially all of
     the padding (the guard byte itself cannot be removed) *)
  check_bool "padding removed" true
    (String.length r.Compdiff.Reduce.red_input <= 2);
  check_bool "at least the guard byte kept" true
    (String.length r.Compdiff.Reduce.red_input >= 1)

let test_reduce_already_minimal () =
  let oracle =
    Compdiff.Oracle.create ~fuel:60_000 (frontend unconditional_uninit_src)
  in
  let r = reduce_exn oracle ~input:"" in
  check_int "empty input stays empty" 0
    (String.length r.Compdiff.Reduce.red_input);
  Alcotest.(check (float 0.001)) "ratio of empty input is 0" 0.
    (Compdiff.Reduce.input_ratio r.Compdiff.Reduce.red_stats)

let test_reduce_rejects_agreement () =
  let stable = "int main() { print(\"hi\\n\"); return 0; }" in
  let oracle = Compdiff.Oracle.create ~fuel:60_000 (frontend stable) in
  let obs = Compdiff.Oracle.observe oracle ~input:"abc" in
  Alcotest.(check bool) "agreement is not reducible" true
    (Compdiff.Reduce.reduce oracle ~input:"abc" obs = None)

(* --- program reduction --- *)

let test_program_reduction_shrinks () =
  let src = guarded_uninit_src in
  let program = parse src in
  let oracle = Compdiff.Oracle.create ~fuel:60_000 (frontend src) in
  let r = reduce_exn oracle ~input:"Upadding" ~program in
  let s = r.Compdiff.Reduce.red_stats in
  check_int "stmts counted" (Compdiff.Reduce.count_stmts program)
    s.Compdiff.Reduce.stmts_before;
  check_bool "program never gains statements" true
    (s.Compdiff.Reduce.stmts_after <= s.Compdiff.Reduce.stmts_before);
  match r.Compdiff.Reduce.red_program with
  | None -> ()                        (* no progress is a legal outcome *)
  | Some p ->
    check_int "reduced stmt count reported" (Compdiff.Reduce.count_stmts p)
      s.Compdiff.Reduce.stmts_after;
    (* the reduced program still typechecks and still diverges on the
       reduced input under a fresh oracle *)
    (match Minic.Typecheck.check_program_result p with
    | Error msg -> Alcotest.failf "reduced program does not typecheck: %s" msg
    | Ok tp ->
      let oracle' = Compdiff.Oracle.create ~fuel:60_000 tp in
      (match
         Compdiff.Oracle.check oracle' ~input:r.Compdiff.Reduce.red_input
       with
      | Compdiff.Oracle.Diverge _ -> ()
      | Compdiff.Oracle.Agree _ ->
        Alcotest.fail "reduced program no longer diverges"))

let test_budget_respected () =
  let oracle = Compdiff.Oracle.create ~fuel:60_000 (frontend guarded_uninit_src) in
  let input = "U" ^ String.make 40 'q' in
  let r = reduce_exn ~max_checks:10 oracle ~input in
  check_bool "validation budget respected" true
    (r.Compdiff.Reduce.red_stats.Compdiff.Reduce.checks <= 10)

(* The default re-oracle keeps the oracle's profile set: with a subset
   of four, program reduction still makes progress. *)
let test_program_reduction_profile_subset () =
  let src =
    "int test_case(void) {\n\
     \  int count;\n\
     \  if (getchar() == 65) { count = 1; }\n\
     \  print(\"count: %d\\n\", count);\n\
     \  return 0;\n\
     }\n\
     int main(void) { test_case(); return 0; }"
  in
  let profiles =
    List.map
      (fun n -> Option.get (Cdcompiler.Profiles.by_name n))
      [ "gccx-O0"; "clangx-O2"; "gccx-O2"; "clangx-O0" ]
  in
  let oracle = Compdiff.Oracle.create ~profiles ~fuel:60_000 (frontend src) in
  let r = reduce_exn oracle ~input:"BB" ~program:(parse src) in
  let s = r.Compdiff.Reduce.red_stats in
  check_bool "program reduction progressed on 4 profiles" true
    (r.Compdiff.Reduce.red_program <> None
    && s.Compdiff.Reduce.stmts_after < s.Compdiff.Reduce.stmts_before);
  check_int "reduced observations over the 4 profiles" 4
    (List.length r.Compdiff.Reduce.red_observations)

(* --- the program-reduction screen --- *)

(* A project divergence reduced the way [Campaign.reduce_representatives]
   reduces it: re-oracles over the project's profiles on one session. *)
let project_reoracle (p : Projects.Project.t) session tp =
  Compdiff.Oracle.create ~session
    ~profiles:(Projects.Project.profiles_for p)
    ~normalize:p.Projects.Project.normalize ~fuel:60_000 tp

let project_reduce pname ~input ~max_checks =
  let p = Option.get (Projects.Registry.by_name pname) in
  let session = Engine.Session.create ~cache_mb:64 () in
  let oracle = project_reoracle p session (Projects.Project.frontend p) in
  reduce_exn ~max_checks ~program:p.Projects.Project.program
    ~reoracle:(project_reoracle p session) oracle ~input

(* Reductions recorded before program candidates were screened on a
   profile pair: (project, divergent input, checks budget, reduced
   input, (checks, input before/after, statements before/after), MD5 of
   the printed reduced program).  The screen must not change any of
   them. *)
let pinned =
  [
    ("tcpdump", "AAB0", 48, "A", (48, 4, 1, 128, 114),
     "604e37f4011dbade6e5e7942cdd779d0");
    ("objdump", "YAB0", 48, "Y", (48, 4, 1, 120, 112),
     "ed6b590b410de256f4f299ba7f0f2e71");
  ]

let test_pinned_reductions () =
  List.iter
    (fun (pname, input, max_checks, red_input, (checks, ib, ia, sb, sa), md5) ->
      let r = project_reduce pname ~input ~max_checks in
      let s = r.Compdiff.Reduce.red_stats in
      Alcotest.(check string) (pname ^ " reduced input") red_input
        r.Compdiff.Reduce.red_input;
      Alcotest.(check (list int))
        (pname ^ " stats")
        [ checks; ib; ia; sb; sa ]
        Compdiff.Reduce.
          [ s.checks; s.input_before; s.input_after; s.stmts_before;
            s.stmts_after ];
      match r.Compdiff.Reduce.red_program with
      | None -> Alcotest.failf "%s: no program reduction" pname
      | Some prog ->
        Alcotest.(check string) (pname ^ " reduced program") md5
          (Digest.to_hex (Digest.string (Minic.Pretty.program_to_string prog))))
    pinned

(* The screen's exactness argument, checked on every profile pair of the
   first typechecking candidates of two project programs: a pair
   observation that terminated equals the full oracle's observation of
   that profile (here from the sequential reference path), and when two
   of them contradict the original partition the full oracle's verdict
   is not in the original class. *)
let test_screen_exact () =
  let fired = ref 0 and kept = ref 0 in
  List.iter
    (fun (pname, input) ->
      let p = Option.get (Projects.Registry.by_name pname) in
      let session = Engine.Session.create ~cache_mb:64 () in
      let reoracle = project_reoracle p session in
      let template = reoracle (Projects.Project.frontend p) in
      let cls =
        Compdiff.Reduce.class_of template ~input
          (Compdiff.Oracle.observe template ~input)
      in
      let part = cls.Compdiff.Reduce.cls_partition in
      let names = Array.of_list (Compdiff.Oracle.names template) in
      let n = Array.length names in
      Compdiff.Reduce.candidates p.Projects.Project.program
      |> Seq.filter_map (fun c ->
             Result.to_option (Minic.Typecheck.check_program_result c))
      |> Seq.take 12
      |> Seq.iter (fun tp ->
             let full = reoracle tp in
             let obs = Compdiff.Oracle.observe_naive full ~input in
             let full_obs = Array.of_list (List.map snd obs) in
             let c = Compdiff.Reduce.class_of full ~input obs in
             let in_class =
               c.Compdiff.Reduce.cls_partition = part
               && c.Compdiff.Reduce.cls_fn = cls.Compdiff.Reduce.cls_fn
             in
             if in_class then incr kept;
             for j = 1 to n - 1 do
               for i = 0 to j - 1 do
                 let po =
                   Compdiff.Oracle.with_program template
                     ~names:[ names.(i); names.(j) ] tp
                 in
                 let oi, oj =
                   match Compdiff.Oracle.observe po ~input with
                   | [ (_, oi); (_, oj) ] -> (oi, oj)
                   | _ -> Alcotest.fail "pair oracle: not two observations"
                 in
                 List.iter
                   (fun (k, o) ->
                     if o.Compdiff.Oracle.status <> Cdvm.Trap.Hang then
                       check_bool
                         (Printf.sprintf "%s: terminated %s as in full" pname
                            names.(k))
                         true (o = full_obs.(k)))
                   [ (i, oi); (j, oj) ];
                 if Compdiff.Reduce.contradicts part po (i, oi) (j, oj) then begin
                   incr fired;
                   check_bool
                     (Printf.sprintf "%s: %s/%s contradiction, full rejects"
                        pname names.(i) names.(j))
                     false in_class
                 end
               done
             done))
    [ ("tcpdump", "A"); ("objdump", "Y") ];
  check_bool "the screen fired" true (!fired > 0);
  check_bool "some candidates stay in the class" true (!kept > 0)

(* A candidate on which both screen-pair profiles hang at base fuel, but
   terminate once the full oracle escalates, is not rejected by the
   screen: it reaches the full check, which accepts it.  At base fuel
   30k the loop hangs the two O0 profiles (the divergent pair: 12
   instructions an iteration) but no optimized one (7); flattening the
   [if] keeps the loop. *)
let test_screen_pair_hang () =
  let src =
    "int main() {\n\
     \  int junk;\n\
     \  int i = 0;\n\
     \  while (i < 3000) { i = i + 1; }\n\
     \  if (i == 3000) { print(\"%d\\n\", junk); }\n\
     \  return 0;\n\
     }"
  in
  let oracle = Compdiff.Oracle.create ~fuel:30_000 (frontend src) in
  (* the first re-oracle is the screen's template (for the program
     itself), every later one a full check *)
  let full_checked = ref [] in
  let reoracle tp =
    full_checked := tp :: !full_checked;
    Compdiff.Oracle.with_program oracle tp
  in
  let r = reduce_exn oracle ~input:"" ~program:(parse src) ~reoracle in
  let cls = r.Compdiff.Reduce.red_class in
  Alcotest.(check (option (pair string string))) "the pair is the O0 profiles"
    (Some ("gccx-O0", "clangx-O0")) cls.Compdiff.Reduce.cls_pair;
  let hangs names tp =
    List.map
      (fun (n, o) -> (n, o.Compdiff.Oracle.status = Cdvm.Trap.Hang))
      (Compdiff.Oracle.observe (Compdiff.Oracle.with_program oracle ?names tp)
         ~input:"")
  in
  let hung_pair_accepted tp =
    hangs (Some [ "gccx-O0"; "clangx-O0" ]) tp
    = [ ("gccx-O0", true); ("clangx-O0", true) ]
    && not (List.assoc "gccx-O0" (hangs None tp))
    &&
    let full = Compdiff.Oracle.with_program oracle tp in
    let c =
      Compdiff.Reduce.class_of full ~input:""
        (Compdiff.Oracle.observe full ~input:"")
    in
    c.Compdiff.Reduce.cls_partition = cls.Compdiff.Reduce.cls_partition
    && c.Compdiff.Reduce.cls_fn = cls.Compdiff.Reduce.cls_fn
  in
  check_bool "a hung-pair candidate got its full check and passed" true
    (List.exists hung_pair_accepted (List.tl (List.rev !full_checked)));
  check_bool "program reduced" true
    (r.Compdiff.Reduce.red_stats.Compdiff.Reduce.stmts_after
    < r.Compdiff.Reduce.red_stats.Compdiff.Reduce.stmts_before)

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "compdiff.reduce",
      [
        tc "reduced input still diverges" test_reduced_still_diverges;
        tc "class preserved" test_reduce_preserves_class;
        tc "never grows" test_reduce_never_grows;
        tc "strips padding" test_reduce_strips_padding;
        tc "already minimal" test_reduce_already_minimal;
        tc "agreement rejected" test_reduce_rejects_agreement;
        tc "program reduction" test_program_reduction_shrinks;
        tc "budget respected" test_budget_respected;
        tc "program reduction on a profile subset"
          test_program_reduction_profile_subset;
        tc "pinned project reductions" test_pinned_reductions;
        tc "screen rejects only what the full check rejects" test_screen_exact;
        tc "screen falls through on a hung pair" test_screen_pair_hang;
      ] );
  ]
