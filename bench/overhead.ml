(* Section 5 "Overhead": differential execution with k implementations
   costs ~k x a plain execution; a well-chosen pair retains most of the
   detection at ~2x. Measured two ways: a wall-clock fuzzing-throughput
   comparison, and Bechamel micro-benchmarks of the building blocks. *)

open Bechamel
open Toolkit

let sample_project () = Option.get (Projects.Registry.by_name "readelf")

let wallclock () =
  let p = sample_project () in
  let tp = Projects.Project.frontend p in
  let time_campaign profiles =
    let config =
      {
        Fuzz.Compdiff_afl.default_config with
        Fuzz.Compdiff_afl.seeds = p.Projects.Project.seeds;
        max_execs = 1_500;
        fuel = 60_000;
        profiles;
      }
    in
    let dt, c = Record.time ~trials:1 (fun () -> Fuzz.Compdiff_afl.run ~config tp) in
    let dt = List.hd dt in
    (dt, float_of_int c.Fuzz.Compdiff_afl.fuzz.Fuzz.Fuzzer.execs /. dt)
  in
  (* k = 0: plain AFL++ (no differential binaries at all) *)
  let t_plain =
    let config =
      {
        Fuzz.Fuzzer.default_config with
        Fuzz.Fuzzer.seeds = p.Projects.Project.seeds;
        max_execs = 1_500;
        fuel = 60_000;
      }
    in
    let u = Cdcompiler.Pipeline.compile Cdcompiler.Profiles.fuzz_profile tp in
    let dt, c = Record.time ~trials:1 (fun () -> Fuzz.Fuzzer.run ~config u) in
    let dt = List.hd dt in
    (dt, float_of_int c.Fuzz.Fuzzer.execs /. dt)
  in
  let pair =
    [ Cdcompiler.Profiles.gccx "O0"; Cdcompiler.Profiles.clangx "O3" ]
  in
  let t_pair = time_campaign pair in
  let t_full = time_campaign Cdcompiler.Profiles.all in
  let row name (dt, eps) base =
    [ name; Printf.sprintf "%.2fs" dt; Printf.sprintf "%.0f" eps;
      Printf.sprintf "%.1fx" (base /. eps) ]
  in
  let _, base_eps = t_plain in
  Cdutil.Tablefmt.print
    ~title:"Overhead (Section 5): fuzzing throughput vs differential set size"
    ~header:[ "configuration"; "time"; "execs/s"; "slowdown" ]
    [
      row "plain AFL++ (k=0)" t_plain base_eps;
      row "CompDiff {gccx-O0, clangx-O3} (k=2)" t_pair base_eps;
      row "CompDiff all implementations (k=10)" t_full base_eps;
    ]

(* --- Bechamel micro-benchmarks --- *)

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

let bench_tests () =
  let tp = Lazy.force listing1_tp in
  let unit_O0 = Cdcompiler.Pipeline.compile (Cdcompiler.Profiles.gccx "O0") tp in
  let oracle2 =
    Compdiff.Oracle.create
      ~profiles:[ Cdcompiler.Profiles.gccx "O0"; Cdcompiler.Profiles.clangx "O3" ]
      ~fuel:50_000 tp
  in
  let oracle10 = Compdiff.Oracle.create ~fuel:50_000 tp in
  [
    Test.make ~name:"murmur3 (1KiB)"
      (Staged.stage
         (let s = String.make 1024 'x' in
          fun () -> ignore (Cdutil.Murmur3.hash32 s)));
    Test.make ~name:"frontend+compile gccx-O0"
      (Staged.stage (fun () ->
           ignore (Cdcompiler.Pipeline.compile (Cdcompiler.Profiles.gccx "O0") tp)));
    Test.make ~name:"frontend+compile clangx-O3"
      (Staged.stage (fun () ->
           ignore (Cdcompiler.Pipeline.compile (Cdcompiler.Profiles.clangx "O3") tp)));
    Test.make ~name:"vm exec (one binary)"
      (Staged.stage (fun () ->
           ignore
             (Cdvm.Exec.run
                ~config:{ Cdvm.Exec.default_config with Cdvm.Exec.input = "A" }
                unit_O0)));
    Test.make ~name:"oracle check k=2"
      (Staged.stage (fun () -> ignore (Compdiff.Oracle.check oracle2 ~input:"A")));
    Test.make ~name:"oracle check k=10"
      (Staged.stage (fun () -> ignore (Compdiff.Oracle.check oracle10 ~input:"A")));
  ]

let microbench () =
  print_endline "Bechamel micro-benchmarks (monotonic clock):";
  print_endline "============================================";
  let instances = [ Instance.monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.4) ~kde:(Some 100) ()
  in
  let grouped =
    Test.make_grouped ~name:"compdiff" ~fmt:"%s %s" (bench_tests ())
  in
  let raw = Benchmark.all cfg instances grouped in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results =
    List.map (fun i -> Analyze.all ols i raw) instances
  in
  let merged = Analyze.merge ols instances results in
  Hashtbl.iter
    (fun measure tbl ->
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] ->
            Printf.printf "  %-40s %14.1f ns/run (%s)\n" name est measure
          | _ -> ())
        tbl)
    merged;
  print_newline ()

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
  (* one oracle pair per program: a sequential dedup-free baseline and
     the deduped pooled one; compilation happens outside the timers *)
  let oracles ~jobs ~dedup =
    List.map
      (fun (tp, inputs) ->
        (Compdiff.Oracle.create ~fuel ~max_fuel ~jobs ~dedup tp, inputs))
      workload
  in
  let seq_oracles = oracles ~jobs:1 ~dedup:false in
  let par_oracles = oracles ~jobs:par_jobs ~dedup:true in
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

let run () =
  wallclock ();
  microbench ()
