(* Tests for the synthetic real-world targets: Table 4/5 invariants, bug
   triggers, triage, and the campaign machinery. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_registry_shape () =
  check_int "23 targets" 23 (List.length Projects.Registry.all);
  check_int "78 seeded bugs" 78 Projects.Registry.total_bugs

let test_outcome_totals () =
  (* Table 5 bottom line: 65 confirmed, 52 fixed of the 78 *)
  let bugs = List.map snd Projects.Registry.all_bugs in
  check_int "confirmed" 65
    (List.length (List.filter (fun (b : Projects.Project.seeded_bug) -> b.Projects.Project.confirmed) bugs));
  check_int "fixed" 52
    (List.length (List.filter (fun (b : Projects.Project.seeded_bug) -> b.Projects.Project.fixed) bugs));
  check_bool "fixed implies confirmed" true
    (List.for_all
       (fun (b : Projects.Project.seeded_bug) ->
         (not b.Projects.Project.fixed) || b.Projects.Project.confirmed)
       bugs)

let test_category_totals () =
  let count cat =
    List.length
      (List.filter
         (fun (_, (b : Projects.Project.seeded_bug)) -> b.Projects.Project.category = cat)
         Projects.Registry.all_bugs)
  in
  check_int "EvalOrder" 2 (count Projects.Project.EvalOrder);
  check_int "UninitMem" 27 (count Projects.Project.UninitMem);
  check_int "IntError" 8 (count Projects.Project.IntError);
  check_int "MemError" 13 (count Projects.Project.MemError);
  check_int "PointerCmp" 1 (count Projects.Project.PointerCmp);
  check_int "LINE" 6 (count Projects.Project.Line);
  check_int "Misc" 21 (count Projects.Project.Misc)

let test_all_projects_compile () =
  List.iter
    (fun (p : Projects.Project.t) ->
      let tp =
        try Projects.Project.frontend p
        with e ->
          Alcotest.failf "%s rejected by the front end: %s" p.Projects.Project.pname
            (Printexc.to_string e)
      in
      List.iter
        (fun prof -> ignore (Cdcompiler.Pipeline.compile prof tp))
        (Projects.Project.profiles_for p))
    Projects.Registry.all

(* every witness input must actually produce a divergence on its project *)
let test_witnesses_trigger () =
  List.iter
    (fun (p : Projects.Project.t) ->
      let tp = Projects.Project.frontend p in
      let oracle =
        Compdiff.Oracle.create
          ~profiles:(Projects.Project.profiles_for p)
          ~normalize:p.Projects.Project.normalize ~fuel:60_000 tp
      in
      List.iter
        (fun (b : Projects.Project.seeded_bug) ->
          check_bool
            (Printf.sprintf "%s witness triggers a divergence" b.Projects.Project.bug_id)
            true
            (Compdiff.Oracle.is_divergence
               (Compdiff.Oracle.check oracle ~input:b.Projects.Project.witness));
          check_bool
            (Printf.sprintf "%s witness satisfies its own trigger" b.Projects.Project.bug_id)
            true
            (b.Projects.Project.trigger b.Projects.Project.witness))
        p.Projects.Project.bugs)
    Projects.Registry.all

(* benign seeds must not diverge: the triage baseline is clean *)
let test_benign_seeds_clean () =
  List.iter
    (fun pname ->
      let p = Option.get (Projects.Registry.by_name pname) in
      let tp = Projects.Project.frontend p in
      let oracle =
        Compdiff.Oracle.create
          ~profiles:(Projects.Project.profiles_for p)
          ~normalize:p.Projects.Project.normalize ~fuel:60_000 tp
      in
      List.iter
        (fun input ->
          (* a seed that happens to satisfy a bug trigger is allowed to
             diverge; everything else must agree *)
          let triggers_something =
            List.exists
              (fun (b : Projects.Project.seeded_bug) -> b.Projects.Project.trigger input)
              p.Projects.Project.bugs
          in
          if not triggers_something then
            check_bool
              (Printf.sprintf "%s seed %S stable" pname input)
              false
              (Compdiff.Oracle.is_divergence (Compdiff.Oracle.check oracle ~input)))
        p.Projects.Project.seeds)
    [ "tcpdump"; "readelf"; "brotli"; "jq"; "libxml2" ]

let test_campaign_finds_and_triages () =
  let p = Option.get (Projects.Registry.by_name "exiv2") in
  let r = Projects.Campaign.run_project ~max_execs:2_500 p in
  check_bool "finds most seeded bugs" true
    (List.length r.Projects.Campaign.found >= 2);
  check_int "no unattributed divergences" 0 r.Projects.Campaign.unattributed

let test_mujs_needs_buggy_compiler () =
  let p = Option.get (Projects.Registry.by_name "MuJS") in
  check_bool "extended set" true p.Projects.Project.needs_buggy_compiler;
  let tp = Projects.Project.frontend p in
  (* without the buggy build there is nothing to diverge *)
  let plain = Compdiff.Oracle.create ~fuel:60_000 tp in
  let extended =
    Compdiff.Oracle.create
      ~profiles:Cdcompiler.Profiles.extended_with_buggy ~fuel:60_000 tp
  in
  let witness = (List.hd p.Projects.Project.bugs).Projects.Project.witness in
  check_bool "ten correct compilers agree" false
    (Compdiff.Oracle.is_divergence (Compdiff.Oracle.check plain ~input:witness));
  check_bool "the miscompiling build diverges" true
    (Compdiff.Oracle.is_divergence (Compdiff.Oracle.check extended ~input:witness))

let test_sanitizer_visibility_matches () =
  (* spot-check Table 6 expectations: the declared sanitizer really covers
     the bug, and EvalOrder/PointerCmp/LINE bugs have no sanitizer *)
  let spot = [ "tcpdump"; "readelf"; "libtiff"; "openssl" ] in
  List.iter
    (fun pname ->
      let p = Option.get (Projects.Registry.by_name pname) in
      let tp = Projects.Project.frontend p in
      List.iter
        (fun (b : Projects.Project.seeded_bug) ->
          match b.Projects.Project.sanitizer_visible with
          | Some kind ->
            check_bool
              (Printf.sprintf "%s covered by %s" b.Projects.Project.bug_id
                 (Sanitizers.San.name kind))
              true
              (List.exists Option.is_some
                 (Sanitizers.San.reports ~fuel:60_000 kind
                    (Sanitizers.San.build tp)
                    ~inputs:[ b.Projects.Project.witness ]))
          | None -> ())
        p.Projects.Project.bugs)
    spot

let test_wireshark_normalization () =
  let p = Option.get (Projects.Registry.by_name "wireshark") in
  let tp = Projects.Project.frontend p in
  let raw = Compdiff.Oracle.create ~fuel:60_000 tp in
  let filtered =
    Compdiff.Oracle.create ~normalize:p.Projects.Project.normalize ~fuel:60_000 tp
  in
  (* a benign input: the only difference is the banner timestamp *)
  check_bool "raw output diverges on the banner" true
    (Compdiff.Oracle.is_divergence (Compdiff.Oracle.check raw ~input:"TAB0"));
  check_bool "normalized output is stable" false
    (Compdiff.Oracle.is_divergence (Compdiff.Oracle.check filtered ~input:"TAB0"))

let test_loc_counts () =
  List.iter
    (fun (p : Projects.Project.t) ->
      let name = p.Projects.Project.pname in
      let loc = Projects.Project.loc p in
      check_bool (name ^ " has a non-trivial program") true (loc > 40);
      (* main is printed last, so its closing brace is line LOC *)
      let lines =
        String.split_on_char '\n'
          (Minic.Pretty.program_to_string p.Projects.Project.program)
      in
      Alcotest.(check string) (name ^ ": line LOC is main's closing brace") "}"
        (List.nth lines (loc - 1)))
    Projects.Registry.all

let tc name f = Alcotest.test_case name `Quick f
let tc_slow name f = Alcotest.test_case name `Slow f

let suites =
  [
    ( "projects.registry",
      [
        tc "shape" test_registry_shape;
        tc "outcome totals" test_outcome_totals;
        tc "category totals" test_category_totals;
        tc "LoC" test_loc_counts;
      ] );
    ( "projects.behaviour",
      [
        tc "all compile" test_all_projects_compile;
        tc_slow "witnesses trigger" test_witnesses_trigger;
        tc "benign seeds clean" test_benign_seeds_clean;
        tc "MuJS compiler bug" test_mujs_needs_buggy_compiler;
        tc "wireshark normalization" test_wireshark_normalization;
        tc "sanitizer visibility" test_sanitizer_visibility_matches;
      ] );
    ( "projects.campaign",
      [ tc_slow "find and triage" test_campaign_finds_and_triages ] );
  ]
