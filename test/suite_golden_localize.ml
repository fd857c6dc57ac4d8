(* Golden localization output.

   Instruction-level localization names a source line through the line
   tables of optimized code, which the compiler rebuilds by aligning the
   optimized instructions against a fresh lowering.  How and when those
   tables are built may change; what a user reads may not.  These tests
   pin two renderings byte for byte:

   - [explore --json] on the uninitialized-read example, whose diverging
     write sits in a function inlined into [main] and so carries a line
     from a rebuilt table;
   - {!Compdiff.Triage.entry_deep} on the witness divergence of one
     fixed Table 4 target. *)

let explore_args =
  [ "explore"; "../examples/unstable_uninit.c"; "--input"; "XYZQRS";
    "--profiles"; "gccx-O2,clangx-O3"; "--json" ]

let explore_json =
  {|{"divergence": true, "impl_a": "gccx-O2", "impl_b": "clangx-O3", "anchor_event": -1, "diverging_event": 0, "probes": 2, "at_a": {"step": 5, "fn": "main", "pc": 8, "line": 17, "kind": "mem", "value": "\"count: -6553\\n\""}, "at_b": {"step": 5, "fn": "main", "pc": 8, "line": 17, "kind": "mem", "value": "\"count: -1823\\n\""}, "diff": "observable event #0 differs: [main] \"count: -6553\\n\" vs [main] \"count: -1823\\n\"", "replay": {"a": {"pos": 5, "steps": 9, "state": "pos=5 next=main@8 depth=1\nstack: main\nregs: r2=88 r3=0\nmem:\n"}, "b": {"pos": 5, "steps": 9, "state": "pos=5 next=main@8 depth=1\nstack: main\nregs: r2=88 r3=0\nmem:\n"}}, "saved": []}
|}

(* the CLI's stdout and exit code; the test runs in the build tree's
   [test] directory, beside [bin] *)
let run_cli (args : string list) : string * int =
  let ic =
    Unix.open_process_args_in "../bin/compdiff_cli.exe"
      (Array.of_list ("compdiff_cli.exe" :: args))
  in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED n -> (out, n)
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> (out, 128 + n)

let test_explore_json () =
  let out, code = run_cli explore_args in
  Alcotest.(check int) "explore exits 1 on a divergence" 1 code;
  Alcotest.(check string) "explore --json" explore_json out;
  let out0, _ = run_cli (explore_args @ [ "--cache-mb"; "0" ]) in
  Alcotest.(check string) "explore --json at --cache-mb 0" explore_json out0

(* input bytes above 0x7f print as code points, so the line is JSON *)
let test_explore_json_bytes () =
  let out, code =
    run_cli
      [ "explore"; "../examples/unstable_uninit.c"; "--input"; "A\xff\xc0Z";
        "--profiles"; "gccx-O2"; "--json" ]
  in
  Alcotest.(check int) "one profile: exit 0" 0 code;
  Alcotest.(check bool) "input as code points" true
    (Suite_gen.contains out {|"input": "A\u00ff\u00c0Z"|})

let project = "exiv2"
let bug = 0

(* the oracle leaves out the O0 profiles, so both traced units are
   optimized and both lines come from rebuilt tables; line 37 is the
   [print] of [exiv2_handle_C] in the target's printed text *)
let entry_deep_text =
  "deep localization: gccx-O1 vs clangx-O1\n  aligned on 0 shared observable events; event #0 differs\n  gccx-O1      26 steps, searched window [0, 24)\n               first diverging instruction: step 23, exiv2_handle_C@19 (line 37)\n  clangx-O1    26 steps, searched window [0, 24)\n               first diverging instruction: step 23, exiv2_handle_C@19 (line 37)\n  diff (4 bisection probes): observable event #0 differs: [exiv2_handle_C] \"field value -20510\\n\" vs [exiv2_handle_C] \"field value -25183\\n\"\n"

(* the exiv2 witness divergence, localized through a session with
   [cache_mb] of cache *)
let entry_deep ~cache_mb : string =
  let p = Option.get (Projects.Registry.by_name project) in
  let b = List.nth p.Projects.Project.bugs bug in
  let input = b.Projects.Project.witness in
  let oracle =
    Compdiff.Oracle.create
      ~session:(Engine.Session.create ~cache_mb ())
      ~profiles:
        (List.filter
           (fun (q : Cdcompiler.Policy.profile) -> q.Cdcompiler.Policy.level <> "O0")
           (Projects.Project.profiles_for p))
      ~normalize:p.Projects.Project.normalize ~fuel:60_000
      (Projects.Project.frontend p)
  in
  match Compdiff.Oracle.check oracle ~input with
  | Compdiff.Oracle.Agree _ -> Alcotest.fail "the witness does not diverge"
  | Compdiff.Oracle.Diverge obs -> (
    let store = Compdiff.Triage.create () in
    ignore (Compdiff.Triage.add store oracle ~input obs);
    match Compdiff.Triage.entries store with
    | [ e ] -> (
      match Compdiff.Triage.entry_deep oracle e with
      | None -> Alcotest.fail "no divergent pair"
      | Some l -> Compdiff.Localize.to_string l)
    | _ -> Alcotest.fail "expected one triage entry")

let test_entry_deep () =
  Alcotest.(check string) "entry_deep" entry_deep_text (entry_deep ~cache_mb:128);
  Alcotest.(check string) "entry_deep at cache_mb 0" entry_deep_text
    (entry_deep ~cache_mb:0)

let suites =
  [
    ( "golden.localize",
      [
        Alcotest.test_case "explore --json" `Quick test_explore_json;
        Alcotest.test_case "explore --json on bytes above 0x7f" `Quick
          test_explore_json_bytes;
        Alcotest.test_case "entry_deep on a Table 4 witness" `Quick
          test_entry_deep;
      ] );
  ]
