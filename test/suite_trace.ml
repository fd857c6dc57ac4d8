(* Tests for the trace store (lib/trace): a recorded [Steps]-level run
   must be a faithful, replayable copy of the live execution.

   The two properties that make time-travel exploration trustworthy:
   - recording is invisible: (stdout, status, fuel_used) of a recorded
     run are byte-identical to the Silent run and the reference
     interpreter, on every profile;
   - replay is exact: seeking a cursor to step k through snapshots
     reconstructs the same state as linear replay from the start. *)

open Cdcompiler

let frontend src =
  match Minic.frontend_of_source src with
  | Ok tp -> tp
  | Error msg -> Alcotest.failf "front end: %s" msg

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let triple (r : Cdvm.Exec.result) =
  (r.Cdvm.Exec.stdout, r.Cdvm.Exec.status, r.Cdvm.Exec.fuel_used)

let link ?(profile = Profiles.gccx "O2") src =
  Cdvm.Image.link (Pipeline.compile profile (frontend src))

(* a call-heavy, memory-touching, printing program; well-defined on any
   input by construction *)
let busy_src =
  "int bump(int x) { return x * 2 + 1; }\n\
   int main() {\n\
   \  int tab[8];\n\
   \  for (int z = 0; z < 8; z++) tab[z] = 0;\n\
   \  int acc = 0;\n\
   \  for (int i = 0; i < 20; i++) {\n\
   \    int c = peek(i);\n\
   \    if (c < 0) { break; }\n\
   \    int slot = c % 8;\n\
   \    tab[slot] = tab[slot] + bump(c);\n\
   \    acc = acc + c;\n\
   \    print(\"%d \", acc);\n\
   \  }\n\
   \  print(\"| %d\\n\", acc);\n\
   \  return 0;\n\
   }"

(* --- recording is invisible --- *)

let test_record_matches_live () =
  List.iter
    (fun profile ->
      let img = link ~profile busy_src in
      let input = "hello, trace" in
      let config =
        { Cdvm.Exec.default_config with Cdvm.Exec.input; fuel = 200_000 }
      in
      let silent = triple (Cdvm.Exec.run_linked ~config img) in
      let tr, res = Cdtrace.record img ~impl:profile.Policy.pname ~input in
      check_bool
        (Printf.sprintf "recorded run matches Silent (%s)" profile.Policy.pname)
        true
        (triple res = silent);
      check_str "trace stdout" (let s, _, _ = silent in s) tr.Cdtrace.stdout;
      check_bool "trace not truncated" false tr.Cdtrace.truncated;
      check_int "recorded = executed" tr.Cdtrace.total_steps tr.Cdtrace.nsteps;
      check_int "one step per fuel unit" res.Cdvm.Exec.fuel_used
        tr.Cdtrace.total_steps)
    Profiles.all

let test_events_match_prints () =
  (* a Prints-level recording carries exactly the Steps recording's
     events, on every profile, and nothing else *)
  List.iter
    (fun profile ->
      let img = link ~profile busy_src in
      let input = "abc" in
      let name = profile.Policy.pname in
      let steps, _ = Cdtrace.record img ~impl:name ~input in
      let prints, res = Cdtrace.record ~level:Cdtrace.Prints img ~impl:name ~input in
      let view (tr : Cdtrace.t) =
        Array.to_list
          (Array.map
             (fun (e : Cdtrace.event) -> (e.Cdtrace.ev_fn, e.Cdtrace.ev_text))
             tr.Cdtrace.events)
      in
      check_bool (Printf.sprintf "Prints events = Steps events (%s)" name) true
        (view prints = view steps);
      check_bool "some events recorded" true (view prints <> []);
      check_str "Prints stdout" steps.Cdtrace.stdout prints.Cdtrace.stdout;
      check_int "Prints fuel" steps.Cdtrace.fuel_used res.Cdvm.Exec.fuel_used;
      check_int "Prints records no steps" 0 (Cdtrace.length prints);
      check_bool "Prints not truncated" false prints.Cdtrace.truncated;
      (* every Steps event's step index points inside the trace *)
      Array.iter
        (fun (e : Cdtrace.event) ->
          check_bool "event step in range" true
            (e.Cdtrace.ev_step >= 0 && e.Cdtrace.ev_step < steps.Cdtrace.nsteps))
        steps.Cdtrace.events)
    Profiles.all

(* the Prints-level event cap drops the excess and says so *)
let test_event_cap () =
  let n = Cdtrace.event_limit + 5 in
  let img =
    link
      (Printf.sprintf
         "int main() { for (int i = 0; i < %d; i++) print(\"x\"); return 0; }" n)
  in
  let tr, res =
    Cdtrace.record ~level:Cdtrace.Prints ~fuel:(20 * n) img ~impl:"cap" ~input:""
  in
  check_bool "run completed" true (res.Cdvm.Exec.status = Cdvm.Trap.Exit 0);
  check_int "events capped" Cdtrace.event_limit (Array.length tr.Cdtrace.events);
  check_bool "cap reported" true tr.Cdtrace.truncated

let test_line_table () =
  let img = link ~profile:(Profiles.gccx "O0") busy_src in
  let tr, _ = Cdtrace.record img ~impl:"gccx-O0" ~input:"x" in
  let c = Cdtrace.cursor tr in
  match Cdtrace.peek c with
  | None -> Alcotest.fail "empty trace"
  | Some (fi, pc, depth) ->
    check_int "starts at depth 1" 1 depth;
    check_str "starts in main" "main" (Cdtrace.func_name tr fi);
    check_bool "entry instruction has a source line" true
      (Cdtrace.line_of tr ~fi ~pc <> None)

(* --- seeking --- *)

let states_agree tr ks =
  let c = Cdtrace.cursor tr in
  let oracle = Cdtrace.cursor tr in
  List.for_all
    (fun k ->
      Cdtrace.seek c k;
      Cdtrace.seek_slow oracle k;
      Cdtrace.state_to_string c = Cdtrace.state_to_string oracle)
    ks

let test_snapshot_boundary_seeks () =
  let img = link busy_src in
  let tr, _ =
    Cdtrace.record ~snapshot_every:4 img ~impl:"gccx-O2" ~input:"snapshots"
  in
  let n = Cdtrace.length tr in
  check_bool "trace long enough to cross snapshots" true (n > 12);
  (* positions straddling every snapshot boundary, plus the ends *)
  let ks = ref [ 0; 1; n - 1; n ] in
  let b = ref 4 in
  while !b < n do
    ks := (!b - 1) :: !b :: (!b + 1) :: !ks;
    b := !b + 4
  done;
  check_bool "seek = seek_slow at snapshot boundaries" true
    (states_agree tr !ks);
  (* backward seek across a snapshot, then forward again *)
  let c = Cdtrace.cursor tr in
  Cdtrace.seek c n;
  Cdtrace.seek c 2;
  let oracle = Cdtrace.cursor tr in
  Cdtrace.seek_slow oracle 2;
  check_str "backward seek" (Cdtrace.state_to_string oracle)
    (Cdtrace.state_to_string c);
  (* seeks clamp rather than fail *)
  Cdtrace.seek c (n + 1000);
  check_int "seek clamps high" n (Cdtrace.pos c);
  Cdtrace.seek c (-5);
  check_int "seek clamps low" 0 (Cdtrace.pos c)

let test_truncation_cap () =
  let img = link busy_src in
  let tr, res =
    Cdtrace.record ~limit:10 img ~impl:"gccx-O2" ~input:"plenty of input"
  in
  check_bool "truncated flag" true tr.Cdtrace.truncated;
  check_int "recorded exactly the cap" 10 (Cdtrace.length tr);
  check_bool "executed more than the cap" true (tr.Cdtrace.total_steps > 10);
  (* the run itself is unaffected by the recorder going dead *)
  let silent =
    triple
      (Cdvm.Exec.run_linked
         ~config:
           {
             Cdvm.Exec.default_config with
             Cdvm.Exec.input = "plenty of input";
             fuel = 200_000;
           }
         img)
  in
  check_bool "truncated recording still invisible" true (triple res = silent);
  (* the capped prefix replays *)
  check_bool "capped prefix replays" true (states_agree tr [ 0; 5; 10; 99 ])

(* --- disk format --- *)

let with_temp f =
  let file = Filename.temp_file "cdtrace" ".ctr" in
  Fun.protect ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ()) (fun () -> f file)

let test_save_load_roundtrip () =
  let img = link busy_src in
  let tr, _ = Cdtrace.record img ~impl:"gccx-O2" ~input:"roundtrip" in
  with_temp (fun file ->
      Cdtrace.save_to tr ~file;
      match Cdtrace.load file with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok tr' ->
        check_int "length survives" (Cdtrace.length tr) (Cdtrace.length tr');
        check_str "stdout survives" tr.Cdtrace.stdout tr'.Cdtrace.stdout;
        let c = Cdtrace.cursor tr and c' = Cdtrace.cursor tr' in
        let k = Cdtrace.length tr / 2 in
        Cdtrace.seek c k;
        Cdtrace.seek c' k;
        check_str "replay state survives" (Cdtrace.state_to_string c)
          (Cdtrace.state_to_string c'))

let test_content_addressed_save () =
  let img = link busy_src in
  let tr, _ = Cdtrace.record img ~impl:"gccx/O2 (weird)" ~input:"addr" in
  let dir = Filename.get_temp_dir_name () in
  let save () =
    match Cdtrace.save tr ~dir with
    | Ok f -> f
    | Error e -> Alcotest.failf "save failed: %s" e
  in
  let f1 = save () in
  let f2 = save () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove f1 with Sys_error _ -> ())
    (fun () ->
      check_str "same trace, same name" f1 f2;
      check_bool "impl name sanitized" true
        (String.for_all
           (fun ch ->
             match ch with
             | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> true
             | _ -> false)
           (Filename.basename f1)))

let test_save_dirs () =
  let img = link busy_src in
  let tr, _ = Cdtrace.record img ~impl:"gccx-O2" ~input:"dirs" in
  let root = Filename.temp_file "cdtrace" ".d" in
  (* [root] is a regular file: nothing can be made beneath it *)
  (match Cdtrace.save tr ~dir:(Filename.concat root "sub") with
  | Ok f -> Alcotest.failf "saved under a regular file: %s" f
  | Error _ -> ());
  Sys.remove root;
  let dir = Filename.concat (Filename.concat root "a") "b" in
  match Cdtrace.save tr ~dir with
  | Error e -> Alcotest.failf "missing parents not made: %s" e
  | Ok f ->
    Fun.protect
      ~finally:(fun () ->
        Sys.remove f;
        Sys.rmdir dir;
        Sys.rmdir (Filename.dirname dir);
        Sys.rmdir root)
      (fun () ->
        check_bool "saved trace loads" true (Result.is_ok (Cdtrace.load f)))

let read_file file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file file s =
  let oc = open_out_bin file in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

let expect_error name file =
  match Cdtrace.load file with
  | Ok _ -> Alcotest.failf "%s: corrupt file loaded successfully" name
  | Error _ -> ()

let test_corrupt_files () =
  let img = link busy_src in
  let tr, _ = Cdtrace.record img ~impl:"gccx-O2" ~input:"corrupt" in
  with_temp (fun file ->
      Cdtrace.save_to tr ~file;
      let good = read_file file in
      (* sanity: the pristine bytes load *)
      (match Cdtrace.load file with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "pristine file rejected: %s" e);
      (* bad magic *)
      write_file file ("XXXXX" ^ String.sub good 5 (String.length good - 5));
      expect_error "bad magic" file;
      (* bit flip in the payload: checksum must catch it *)
      let b = Bytes.of_string good in
      let mid = 13 + ((Bytes.length b - 13) / 2) in
      Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0x40));
      write_file file (Bytes.to_string b);
      expect_error "bit flip" file;
      (* truncated payload *)
      write_file file (String.sub good 0 (String.length good - 7));
      expect_error "truncated" file;
      (* shorter than the header *)
      write_file file "CDTR";
      expect_error "short" file;
      (* a directory where the file should be *)
      expect_error "directory" (Filename.dirname file);
      (* missing file *)
      match Cdtrace.load (file ^ ".does-not-exist") with
      | Ok _ -> Alcotest.fail "missing file loaded"
      | Error _ -> ())

(* --- sequential decoding --- *)

let test_iter_consistent_with_cursor () =
  let img = link busy_src in
  let tr, _ = Cdtrace.record img ~impl:"gccx-O2" ~input:"iterate" in
  let n = ref 0 in
  let c = Cdtrace.cursor tr in
  Cdtrace.iter tr (fun sv ->
      check_int "iter visits steps in order" !n sv.Cdtrace.sv_ix;
      (match Cdtrace.peek c with
      | Some (fi, pc, depth) ->
        check_int "iter fi matches cursor" fi sv.Cdtrace.sv_fi;
        check_int "iter pc matches cursor" pc sv.Cdtrace.sv_pc;
        check_int "iter depth matches cursor" depth sv.Cdtrace.sv_depth
      | None -> Alcotest.fail "cursor ended before iter");
      Cdtrace.seek c (!n + 1);
      incr n);
  check_int "iter visits every step" (Cdtrace.length tr) !n

(* --- deep localization over recorded traces --- *)

(* uninitialized read: the canonical unstable program (paper listing 1
   in miniature) — implementations print different junk on empty input *)
let unstable_src =
  "int main() {\n\
   \  int l;\n\
   \  int c = getchar();\n\
   \  if (c > 64) { l = c; }\n\
   \  print(\"%d\\n\", l);\n\
   \  return 0;\n\
   }"

let test_deep_localization () =
  let o = Compdiff.Oracle.create (frontend unstable_src) in
  match Compdiff.Oracle.check o ~input:"" with
  | Compdiff.Oracle.Agree _ -> Alcotest.fail "expected a divergence"
  | Compdiff.Oracle.Diverge obs -> (
    match
      ( Compdiff.Localize.of_divergence ~level:Cdtrace.Steps o obs ~input:"",
        Compdiff.Localize.of_divergence ~level:Cdtrace.Prints o obs ~input:"" )
    with
    | None, _ | _, None -> Alcotest.fail "expected a localization"
    | Some d, Some p ->
      let open Compdiff.Localize in
      (* both levels record the same events: same diverging event, same
         differing events *)
      let view (e : Cdtrace.event) = (e.Cdtrace.ev_fn, e.Cdtrace.ev_text) in
      check_bool "levels agree on the diverging event" true
        (d.diverging_event = p.diverging_event && d.diverging_event <> None);
      check_bool "levels agree on the differing events" true
        (Option.map view d.ev_a = Option.map view p.ev_a
        && Option.map view d.ev_b = Option.map view p.ev_b);
      check_bool "diff is nonempty" true (String.length d.diff > 0);
      check_bool "divergence explained" true
        (d.diverging_event <> None || d.deep_a.ds_at <> None
        || d.deep_b.ds_at <> None);
      (* the uninit junk flows into a concrete write on each side *)
      (match (d.deep_a.ds_at, d.deep_b.ds_at) with
      | Some a, Some b ->
        check_bool "differing values reported" true (a.pr_value <> b.pr_value);
        check_bool "source line attributed" true
          (a.pr_line <> None && b.pr_line <> None)
      | _ -> Alcotest.fail "expected a diverging instruction on both sides"))

let test_deep_identical_binaries () =
  (* same binary on both sides: the fallback chain must still return a
     total answer, not a crash *)
  let img = link busy_src in
  let ta, _ = Cdtrace.record img ~impl:"left" ~input:"same" in
  let tb, _ = Cdtrace.record img ~impl:"right" ~input:"same" in
  let d = Compdiff.Localize.of_traces ~level:Cdtrace.Steps ta tb in
  let open Compdiff.Localize in
  check_bool "no diverging event" true (d.diverging_event = None);
  check_bool "no diverging write" true
    (d.deep_a.ds_at = None && d.deep_b.ds_at = None);
  check_bool "still explains itself" true (String.length d.diff > 0)

(* --- properties --- *)

(* random "parser-like" programs with a helper function so traces have
   call/return structure; well-defined by construction *)
let gen_program_src =
  let open QCheck.Gen in
  let arith_op = oneofl [ "+"; "-"; "*" ] in
  let small = int_range 1 9 in
  let* n = int_range 4 8 in
  let* op1 = arith_op and* op2 = arith_op in
  let* k1 = small and* k2 = small and* k3 = small in
  return
    (Printf.sprintf
       "int mix(int a, int b) { return a %s b %s %d; }\n\
        int main() {\n\
       \  int tab[%d];\n\
       \  for (int z = 0; z < %d; z++) tab[z] = 0;\n\
       \  int acc = 0;\n\
       \  for (int i = 0; i < 16; i++) {\n\
       \    int c = peek(i);\n\
       \    if (c < 0) { break; }\n\
       \    int slot = (c %s %d) %% %d;\n\
       \    if (slot < 0) { slot = 0 - slot; }\n\
       \    tab[slot] = mix(tab[slot], c %% %d);\n\
       \    acc = acc %s %d;\n\
       \  }\n\
       \  for (int z = 0; z < %d; z++) print(\"%%d \", tab[z]);\n\
       \  print(\"| %%d\\n\", acc);\n\
       \  return 0;\n\
        }"
       op1 op2 k1 n n op1 k2 n (k3 + 1) op2 k1 n)

let gen_case =
  QCheck.Gen.(
    triple gen_program_src
      (string_size (int_range 0 12))
      (int_range 0 (List.length Profiles.all - 1)))

let prop_replay_invisible =
  QCheck.Test.make ~name:"recording never perturbs execution" ~count:25
    (QCheck.make gen_case)
    (fun (src, input, pidx) ->
      match Minic.frontend_of_source src with
      | Error _ -> false
      | Ok tp ->
        let profile = List.nth Profiles.all pidx in
        let img = Cdvm.Image.link (Pipeline.compile profile tp) in
        let config =
          { Cdvm.Exec.default_config with Cdvm.Exec.input; fuel = 200_000 }
        in
        let silent = triple (Cdvm.Exec.run_linked ~config img) in
        let tr, res = Cdtrace.record img ~impl:profile.Policy.pname ~input in
        triple res = silent && tr.Cdtrace.stdout = (let s, _, _ = silent in s))

let prop_seek_equals_slow =
  QCheck.Test.make ~name:"snapshot seek = linear replay" ~count:20
    (QCheck.make
       QCheck.Gen.(pair gen_case (list_size (int_range 1 8) (int_range 0 2000))))
    (fun ((src, input, pidx), ks) ->
      match Minic.frontend_of_source src with
      | Error _ -> false
      | Ok tp ->
        let profile = List.nth Profiles.all pidx in
        let img = Cdvm.Image.link (Pipeline.compile profile tp) in
        let tr, _ =
          Cdtrace.record ~snapshot_every:7 img ~impl:profile.Policy.pname
            ~input
        in
        states_agree tr ks)

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "trace.record",
      [
        tc "matches live run on all profiles" test_record_matches_live;
        tc "events match prints-level run" test_events_match_prints;
        tc "prints-level event cap" test_event_cap;
        tc "line table" test_line_table;
        tc "truncation cap" test_truncation_cap;
      ] );
    ( "trace.seek",
      [
        tc "snapshot boundaries" test_snapshot_boundary_seeks;
        tc "iter consistent with cursor" test_iter_consistent_with_cursor;
      ] );
    ( "trace.disk",
      [
        tc "save/load roundtrip" test_save_load_roundtrip;
        tc "content-addressed name" test_content_addressed_save;
        tc "save makes or reports its directory" test_save_dirs;
        tc "corrupt files rejected" test_corrupt_files;
      ] );
    ( "trace.deep",
      [
        tc "uninit divergence pinned" test_deep_localization;
        tc "identical binaries total" test_deep_identical_binaries;
      ] );
    ( "trace.props",
      [
        QCheck_alcotest.to_alcotest prop_replay_invisible;
        QCheck_alcotest.to_alcotest prop_seek_equals_slow;
      ] );
  ]
