(* Section 5 "Overhead" (emits BENCH_overhead.json): differential
   execution with k implementations costs about k times a plain
   execution, and a well-chosen pair keeps most of the detection at
   about 2x.  Two sets of rows, each timed by one {!Record.alternate}:

   - campaigns: a readelf campaign (1,500 execs on B_fuzz, fuel 60k,
     reduction on save) at k = 0 (plain AFL++, no differential
     binaries), k = 2 ({gccx-O0, clangx-O3}) and k = 10 (every
     implementation), in B_fuzz execs/s, with the k = 2 and k = 10
     slowdowns over k = 0;
   - building blocks, in ops/s: murmur3 over 1 KiB, a gccx-O0 and a
     clangx-O3 compile, one linked VM execution and an oracle check at
     k = 2 and k = 10, all on the Listing 1 program, with the k10/k2
     check and O3/O0 compile cost ratios.

   A CompDiff campaign runs without an engine session, as [compdiff
   fuzz] does by default: it compiles its binaries and executes every
   input.  The k = 0 campaign's B_fuzz is compiled once, outside the
   timer.  A thunk returns a summary every trial must repeat (execs and
   unique divergence signatures); the campaign record holds closures. *)

let listing1_tp =
  lazy
    (match
       Minic.frontend_of_source
         "int dump_data(int offset, int len) {\n\
          \  if (offset + len > 1000) { return -1; }\n\
          \  if (offset + len < offset) { return -1; }\n\
          \  return len;\n\
          }\n\
          int main() { print(\"%d\\n\", dump_data(getchar(), 101)); return 0; }"
     with
    | Ok tp -> tp
    | Error e -> failwith e)

let pair = [ Cdcompiler.Profiles.gccx "O0"; Cdcompiler.Profiles.clangx "O3" ]

(* The three campaigns, [rounds] of each per trial: a trial of the k = 0
   one lasts at least 0.5 s on a 2-vCPU VM *)
let campaigns r =
  let p = Option.get (Projects.Registry.by_name "readelf") in
  let tp = Projects.Project.frontend p in
  let seeds = p.Projects.Project.seeds and max_execs = 1_500 and fuel = 60_000 in
  let plain =
    let config =
      { Fuzz.Fuzzer.default_config with Fuzz.Fuzzer.seeds; max_execs; fuel }
    in
    let u = Cdcompiler.Pipeline.compile Cdcompiler.Profiles.fuzz_profile tp in
    fun () -> ((Fuzz.Fuzzer.run ~config u).Fuzz.Fuzzer.execs, 0)
  in
  let compdiff profiles () =
    let config =
      { Fuzz.Compdiff_afl.default_config with
        Fuzz.Compdiff_afl.seeds; max_execs; fuel; profiles }
    in
    let c = Fuzz.Compdiff_afl.run ~config tp in
    (c.Fuzz.Compdiff_afl.fuzz.Fuzz.Fuzzer.execs,
     Compdiff.Triage.unique_count c.Fuzz.Compdiff_afl.diffs)
  in
  let configs =
    [ ("k0", plain); ("k2", compdiff pair); ("k10", compdiff Cdcompiler.Profiles.all) ]
  in
  let rounds = 60 in
  let timed = Record.alternate ~trials:5 ~rounds (List.map snd configs) in
  List.iter2
    (fun (name, _) (secs, (execs, unique)) ->
      Record.rate r name "execs/s" (rounds * execs) secs;
      (* plain AFL++ has no differential check to diverge *)
      if name <> "k0" then Record.count r (name ^ ".unique") unique)
    configs timed;
  Record.ratio r "slowdown.k2" "k0" "k2";
  Record.ratio r "slowdown.k10" "k0" "k10";
  (* the form of the claim noise cannot flip: more implementations cost
     more per input *)
  Record.ratio r "slowdown.k10_over_k2" "k2" "k10";
  Record.at_least r "slowdown.k10_over_k2" 1.

(* Each block runs [n] times per call, so that a call lasts about 20 ms
   on a 2-vCPU VM, and [rounds] calls per trial *)
let blocks r =
  let tp = Lazy.force listing1_tp in
  let o0 = Cdcompiler.Profiles.gccx "O0" and o3 = Cdcompiler.Profiles.clangx "O3" in
  let image = Cdvm.Image.link (Cdcompiler.Pipeline.compile o0 tp) in
  let oracle2 = Compdiff.Oracle.create ~profiles:pair ~fuel:50_000 tp in
  let oracle10 = Compdiff.Oracle.create ~fuel:50_000 tp in
  let kib = String.make 1024 'x' in
  let config = { Cdvm.Exec.default_config with Cdvm.Exec.input = "A" } in
  let blocks =
    [ ("murmur3_1kib", 10_000, fun () -> Hashtbl.hash (Cdutil.Murmur3.hash32 kib));
      ("compile.gccx_O0", 5_000,
       fun () -> Hashtbl.hash (Cdcompiler.Pipeline.compile o0 tp));
      ("compile.clangx_O3", 160,
       fun () -> Hashtbl.hash (Cdcompiler.Pipeline.compile o3 tp));
      ("exec", 15_000, fun () -> Hashtbl.hash (Cdvm.Exec.run_linked ~config image));
      ("check.k2", 5_000,
       fun () -> Hashtbl.hash (Compdiff.Oracle.check oracle2 ~input:"A"));
      ("check.k10", 1_500,
       fun () -> Hashtbl.hash (Compdiff.Oracle.check oracle10 ~input:"A")) ]
  in
  (* [n] calls of [f], the last one's hash *)
  let repeat n f () =
    let h = ref (f ()) in
    for _ = 2 to n do h := f () done;
    !h
  in
  let rounds = 2 in
  let timed =
    Record.alternate ~trials:5 ~rounds
      (List.map (fun (_, n, f) -> repeat n f) blocks)
  in
  List.iter2
    (fun (name, n, _) (secs, _) -> Record.rate r name "ops/s" (rounds * n) secs)
    blocks timed;
  Record.ratio r "check.k10_over_k2" "check.k2" "check.k10";
  Record.ratio r "compile.O3_over_O0" "compile.gccx_O0" "compile.clangx_O3"

let run () =
  let r =
    Record.create ~bench:"overhead"
      ~about:
        "execs/s = B_fuzz executions per second of a readelf campaign at k \
         implementations; ops/s = building blocks per second; x = cost \
         ratios"
  in
  campaigns r;
  blocks r;
  Record.emit r

(* --- parallel-oracle benchmark (emits BENCH_oracle.json) ---

   Measures oracle throughput in oracle checks per second ("execs/sec"
   as the fuzzer sees them: one check = one input judged against the
   whole differential set).  The workload mixes a cheap branchy program
   (the Listing-1 pattern) with an input-dependent escalator whose O0
   builds exceed the base fuel while the optimized builds finish —
   exercising both binary dedup and incremental fuel escalation. *)

let escalator_tp =
  lazy
    (match
       Minic.frontend_of_source
         "int main() {\n\
          \  int c = getchar();\n\
          \  int n = 600;\n\
          \  if (c > 64) { n = 20000; }\n\
          \  int i = 0;\n\
          \  int acc = 0;\n\
          \  while (i < n) { acc = acc + i * 3 + 1; i = i + 1; }\n\
          \  print(\"%d %d\\n\", c, acc);\n\
          \  return 0;\n\
          }"
     with
    | Ok tp -> tp
    | Error e -> failwith e)

let oracle_workload () =
  let listing_inputs = List.init 40 (fun i -> String.make 1 (Char.chr (32 + i))) in
  let escal_inputs =
    (* 12 cheap inputs, 4 that trigger the mixed hang + escalation *)
    List.init 12 (fun i -> String.make 1 (Char.chr (33 + i)))
    @ [ "z"; "q"; "x"; "~" ]
  in
  [ (Lazy.force listing1_tp, listing_inputs);
    (Lazy.force escalator_tp, escal_inputs) ]

(* [reps] rounds of [check] over every oracle's inputs, verdicts in order *)
let check_rounds ~reps check oracles () =
  List.concat_map
    (fun _ ->
      List.concat_map
        (fun (o, inputs) -> List.map (fun input -> check o ~input) inputs)
        oracles)
    (List.init reps Fun.id)

let oracle_bench () =
  let par_jobs = 4 in
  Cdutil.Pool.set_default_jobs par_jobs;
  let fuel = 300_000 and max_fuel = 4_800_000 in
  let workload = oracle_workload () in
  let nchecks =
    List.fold_left (fun a (_, inputs) -> a + List.length inputs) 0 workload
  in
  (* one oracle pair per program: a sequential one, checked by the
     dedup-free reference, and the pooled one; compilation happens
     outside the timers *)
  let oracles ~jobs =
    List.map
      (fun (tp, inputs) -> (Compdiff.Oracle.create ~fuel ~max_fuel ~jobs tp, inputs))
      workload
  in
  let seq_oracles = oracles ~jobs:1 in
  let par_oracles = oracles ~jobs:par_jobs in
  let reps = 3 in
  let seq_time, seq_verdicts =
    Record.time ~trials:1
      (check_rounds ~reps Compdiff.Oracle.check_naive seq_oracles)
  in
  let par_time, par_verdicts =
    Record.time ~trials:1 (check_rounds ~reps Compdiff.Oracle.check par_oracles)
  in
  let verdicts_match = seq_verdicts = par_verdicts in
  let total_checks = reps * nchecks in
  let ps =
    Compdiff.Oracle.sum_stats
      (List.map (fun (o, _) -> Compdiff.Oracle.stats o) par_oracles)
  in
  let r =
    Record.create ~bench:"oracle"
      ~about:
        "checks/s = oracle checks per second (one check = one input judged \
         against the full differential set)"
  in
  Record.count r "jobs_parallel" par_jobs;
  Record.count r "checks" total_checks;
  Record.rate r "sequential" "checks/s" total_checks seq_time;
  Record.count r "sequential.vm_execs"
    (ps.Compdiff.Oracle.vm_execs + ps.Compdiff.Oracle.dedup_saved
   + ps.Compdiff.Oracle.escalation_saved);
  Record.rate r "parallel" "checks/s" total_checks par_time;
  Record.count r "parallel.vm_execs" ps.Compdiff.Oracle.vm_execs;
  Record.count r "parallel.dedup_saved" ps.Compdiff.Oracle.dedup_saved;
  Record.count r "parallel.escalation_saved" ps.Compdiff.Oracle.escalation_saved;
  Record.ratio r "speedup" "parallel" "sequential";
  List.iter2
    (fun prog (o, _) ->
      Record.count r ("classes." ^ prog) (Compdiff.Oracle.class_count o);
      Record.count r ("binaries." ^ prog)
        (List.length (Compdiff.Oracle.binaries o)))
    [ "listing1"; "escalator" ] par_oracles;
  (* binary-dedup ratio on Juliet CWE categories: fraction of binaries
     the oracle does not need to execute *)
  List.iter
    (fun cwe ->
      let tests =
        List.filter
          (fun (t : Juliet.Testcase.t) -> t.Juliet.Testcase.cwe = cwe)
          (Juliet.Suite.quick ~per_cwe:2 ())
      in
      let ratios =
        List.map
          (fun (t : Juliet.Testcase.t) ->
            let o =
              Compdiff.Oracle.create ~jobs:1 (Juliet.Testcase.frontend_bad t)
            in
            let k = List.length (Compdiff.Oracle.binaries o) in
            1. -. (float_of_int (Compdiff.Oracle.class_count o) /. float_of_int k))
          tests
      in
      Record.value r
        (Printf.sprintf "juliet_dedup.cwe%d" cwe)
        "ratio" (Cdutil.Stats.mean ratios))
    [ 190; 369; 457; 476 ];
  Record.holds r "verdicts_match" verdicts_match;
  Record.emit r;
  if not verdicts_match then failwith "oracle bench: verdict mismatch"
