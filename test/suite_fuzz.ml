(* Tests for the greybox fuzzer and the CompDiff-AFL++ integration. *)

let frontend src =
  match Minic.frontend_of_source src with
  | Ok tp -> tp
  | Error msg -> Alcotest.failf "front end: %s" msg

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- mutators --- *)

let test_mutators_deterministic () =
  let a = Cdutil.Rng.create 5 and b = Cdutil.Rng.create 5 in
  Alcotest.(check string) "same seed, same mutation"
    (Fuzz.Mutator.havoc a "hello world")
    (Fuzz.Mutator.havoc b "hello world")

let test_mutators_change_input () =
  let rng = Cdutil.Rng.create 7 in
  let changed = ref 0 in
  for _ = 1 to 50 do
    if Fuzz.Mutator.havoc rng "some input bytes" <> "some input bytes" then incr changed
  done;
  check_bool "mutations usually change the input" true (!changed > 40)

let test_mutators_handle_empty () =
  let rng = Cdutil.Rng.create 9 in
  for _ = 1 to 50 do
    ignore (Fuzz.Mutator.havoc rng "");
    ignore (Fuzz.Mutator.splice rng "" "")
  done

let test_splice_mixes () =
  let rng = Cdutil.Rng.create 11 in
  let s = Fuzz.Mutator.splice rng (String.make 20 'a') (String.make 20 'b') in
  check_bool "non-empty" true (String.length s > 0)

(* --- queue --- *)

let test_queue_roundrobin () =
  let q = Fuzz.Queue.create () in
  ignore (Fuzz.Queue.add q ~data:"a" ~fuel_used:10 ~found_at:0);
  ignore (Fuzz.Queue.add q ~data:"b" ~fuel_used:10 ~found_at:1);
  let s1 = Fuzz.Queue.select q and s2 = Fuzz.Queue.select q and s3 = Fuzz.Queue.select q in
  Alcotest.(check string) "cycles" "a" s1.Fuzz.Queue.data;
  Alcotest.(check string) "cycles" "b" s2.Fuzz.Queue.data;
  Alcotest.(check string) "wraps" "a" s3.Fuzz.Queue.data

(* regression for the cursor-drift bug: with an unbounded cursor reduced
   [mod n] at selection time, a queue growing mid-cycle shifts the
   meaning of the cursor — after [add a; add b; select x3; add c] the
   old code re-served "a" (visited twice this cycle) and pushed "c" a
   full extra cycle out.  The explicit wrap keeps the sweep front
   stable: the next selections must be "b" then "c". *)
let test_queue_growth_no_drift () =
  let q = Fuzz.Queue.create () in
  ignore (Fuzz.Queue.add q ~data:"a" ~fuel_used:10 ~found_at:0);
  ignore (Fuzz.Queue.add q ~data:"b" ~fuel_used:10 ~found_at:1);
  for _ = 1 to 3 do ignore (Fuzz.Queue.select q) done;
  (* cursor sits just past "a" on the second sweep *)
  ignore (Fuzz.Queue.add q ~data:"c" ~fuel_used:10 ~found_at:2);
  Alcotest.(check string) "sweep continues at b" "b"
    (Fuzz.Queue.select q).Fuzz.Queue.data;
  Alcotest.(check string) "fresh seed served this sweep" "c"
    (Fuzz.Queue.select q).Fuzz.Queue.data

(* one full sweep (n consecutive selects, no adds in between) serves
   every entry exactly once, wherever the cursor starts *)
let test_queue_sweep_covers_all () =
  let q = Fuzz.Queue.create () in
  for i = 0 to 4 do
    ignore (Fuzz.Queue.add q ~data:(string_of_int i) ~fuel_used:1 ~found_at:i)
  done;
  (* desynchronize the cursor from position 0 *)
  for _ = 1 to 7 do ignore (Fuzz.Queue.select q) done;
  let seen = Hashtbl.create 8 in
  for _ = 1 to Fuzz.Queue.length q do
    let e = Fuzz.Queue.select q in
    Alcotest.(check bool) "no repeat within a sweep" false
      (Hashtbl.mem seen e.Fuzz.Queue.id);
    Hashtbl.replace seen e.Fuzz.Queue.id ()
  done;
  check_int "every entry visited" (Fuzz.Queue.length q) (Hashtbl.length seen)

(* model-based property: the queue against a reference model (plain list
   plus an explicitly wrapped cursor) over random add/select programs *)
let queue_props =
  let open QCheck in
  let ops_gen =
    (* true = add (with a fresh payload), false = select *)
    small_list bool
  in
  [
    Test.make ~name:"Queue.select agrees with the wrapped-cursor model"
      ~count:300 ops_gen (fun ops ->
        let q = Fuzz.Queue.create () in
        let model = ref [] (* reversed *) and cursor = ref 0 and k = ref 0 in
        List.for_all
          (fun is_add ->
            if is_add || !model = [] then begin
              let data = string_of_int !k in
              incr k;
              ignore (Fuzz.Queue.add q ~data ~fuel_used:1 ~found_at:!k);
              model := data :: !model;
              true
            end
            else begin
              let entries = List.rev !model in
              if !cursor >= List.length entries then cursor := 0;
              let expect = List.nth entries !cursor in
              incr cursor;
              (Fuzz.Queue.select q).Fuzz.Queue.data = expect
            end)
          ops);
  ]

let test_queue_energy () =
  let q = Fuzz.Queue.create () in
  let small = Fuzz.Queue.add q ~data:"ab" ~fuel_used:100 ~found_at:0 in
  let large =
    Fuzz.Queue.add q ~data:(String.make 1000 'x') ~fuel_used:50_000 ~found_at:0
  in
  check_bool "small fast seeds get more energy" true
    (Fuzz.Queue.energy q small > Fuzz.Queue.energy q large)

(* the fitness schedule: coverage novelty and oracle divergence add
   energy on top of the favored heuristic *)
let test_queue_energy_fitness () =
  let q = Fuzz.Queue.create () in
  let plain = Fuzz.Queue.add q ~data:"a" ~fuel_used:100 ~found_at:0 in
  let novel =
    Fuzz.Queue.add q ~novelty:6 ~data:"b" ~fuel_used:100 ~found_at:0
  in
  let divergent =
    Fuzz.Queue.add q ~divergent:true ~data:"c" ~fuel_used:100 ~found_at:0
  in
  check_bool "novelty earns energy" true
    (Fuzz.Queue.energy q novel > Fuzz.Queue.energy q plain);
  check_bool "divergence earns energy" true
    (Fuzz.Queue.energy q divergent > Fuzz.Queue.energy q plain)

(* found_at is live (the satellite bugfix): a seed found late in the
   campaign outranks an otherwise-identical early one *)
let test_queue_energy_exploration () =
  let q = Fuzz.Queue.create () in
  let early = Fuzz.Queue.add q ~data:"a" ~fuel_used:100 ~found_at:10 in
  let late = Fuzz.Queue.add q ~data:"b" ~fuel_used:100 ~found_at:1_000 in
  check_bool "late finds get exploration energy" true
    (Fuzz.Queue.energy q late > Fuzz.Queue.energy q early)

(* --- coverage-guided loop --- *)

(* a program with input-dependent branches: coverage must grow and the
   queue must collect new seeds *)
let branchy_src =
  "int main() {\n\
   \  int a = getchar();\n\
   \  if (a == 77) {\n\
   \    int b = getchar();\n\
   \    if (b == 88) { print(\"deep\\n\"); }\n\
   \    else { print(\"mid\\n\"); }\n\
   \  }\n\
   \  if (a > 100) { print(\"high\\n\"); }\n\
   \  return 0;\n\
   }"

let test_fuzzer_grows_queue () =
  let u = Cdcompiler.Pipeline.compile Cdcompiler.Profiles.fuzz_profile (frontend branchy_src) in
  let c =
    Fuzz.Fuzzer.run
      ~config:{ Fuzz.Fuzzer.default_config with Fuzz.Fuzzer.max_execs = 1_500; seeds = [ "MX" ] }
      u
  in
  check_bool "several seeds found" true (List.length c.Fuzz.Fuzzer.queue >= 2);
  check_bool "edges covered" true (c.Fuzz.Fuzzer.edges_covered > 0);
  check_int "exec budget respected" 1_500 c.Fuzz.Fuzzer.execs

(* regression: [seeds = []] used to crash in the deterministic stage
   ([List.hd] of the empty corpus); it now falls back to the empty
   input and completes the full budget *)
let test_fuzzer_empty_seeds () =
  let u = Cdcompiler.Pipeline.compile Cdcompiler.Profiles.fuzz_profile (frontend branchy_src) in
  let c =
    Fuzz.Fuzzer.run
      ~config:{ Fuzz.Fuzzer.default_config with Fuzz.Fuzzer.max_execs = 500; seeds = [] }
      u
  in
  check_int "budget spent despite empty corpus" 500 c.Fuzz.Fuzzer.execs;
  check_bool "queue seeded with fallback input" true
    (List.length c.Fuzz.Fuzzer.queue >= 1)

let test_fuzzer_single_byte_seed () =
  let u = Cdcompiler.Pipeline.compile Cdcompiler.Profiles.fuzz_profile (frontend branchy_src) in
  let c =
    Fuzz.Fuzzer.run
      ~config:{ Fuzz.Fuzzer.default_config with Fuzz.Fuzzer.max_execs = 1_000; seeds = [ "M" ] }
      u
  in
  check_int "budget spent" 1_000 c.Fuzz.Fuzzer.execs;
  check_bool "edges covered" true (c.Fuzz.Fuzzer.edges_covered > 0)

let test_fuzzer_reproducible () =
  let u = Cdcompiler.Pipeline.compile Cdcompiler.Profiles.fuzz_profile (frontend branchy_src) in
  let run () =
    let c =
      Fuzz.Fuzzer.run
        ~config:{ Fuzz.Fuzzer.default_config with Fuzz.Fuzzer.max_execs = 600; rng_seed = 42 }
        u
    in
    List.map (fun e -> e.Fuzz.Queue.data) c.Fuzz.Fuzzer.queue
  in
  Alcotest.(check (list string)) "identical campaigns" (run ()) (run ())

let test_fuzzer_finds_crash () =
  (* crash guarded by a 1-byte comparison: easily reached *)
  let src =
    "int main() {\n\
     \  int a = getchar();\n\
     \  if (a == 75) { int *p = (int *) 0; return *p; }\n\
     \  return 0;\n\
     }"
  in
  let u = Cdcompiler.Pipeline.compile Cdcompiler.Profiles.fuzz_profile (frontend src) in
  let c =
    Fuzz.Fuzzer.run
      ~config:{ Fuzz.Fuzzer.default_config with Fuzz.Fuzzer.max_execs = 3_000; seeds = [ "K" ] }
      u
  in
  check_bool "crash found" true (List.length c.Fuzz.Fuzzer.crashes >= 1)

let test_fuzzer_sanitizer_reports () =
  let src =
    "int main() {\n\
     \  int a = getchar();\n\
     \  int buf[4];\n\
     \  buf[0] = 0;\n\
     \  if (a >= 52) { buf[a - 48] = 7; }\n\
     \  return buf[0];\n\
     }"
  in
  let u = Cdcompiler.Pipeline.compile Cdcompiler.Profiles.fuzz_profile (frontend src) in
  let c =
    Fuzz.Fuzzer.run
      ~config:
        {
          Fuzz.Fuzzer.default_config with
          Fuzz.Fuzzer.max_execs = 3_000;
          seeds = [ "0" ];
          hooks = Sanitizers.Asan.hooks;
        }
      u
  in
  check_bool "ASan report found while fuzzing" true
    (List.length c.Fuzz.Fuzzer.san_reports >= 1)

(* regression for the shared-dedup bug: crash signatures and sanitizer
   messages used to go through one table, so a trap string and a
   sanitizer message that collide (e.g. both "divide-by-zero")
   suppressed each other's first report.  Feed the bookkeeping a trap
   and a sanitizer report with the same signature: both must be kept. *)
let test_dedup_tables_split () =
  let u =
    Cdcompiler.Pipeline.compile Cdcompiler.Profiles.fuzz_profile
      (frontend "int main() { return 0; }")
  in
  let image = Cdvm.Image.link u in
  let st =
    {
      Fuzz.Fuzzer.target = u;
      image;
      arena = Cdvm.Arena.create image;
      cfg = Fuzz.Fuzzer.default_config;
      rng = Cdutil.Rng.create 1;
      cov = Cdvm.Coverage.create ();
      virgin = Bytes.make Cdvm.Coverage.size '\000';
      queue = Fuzz.Queue.create ();
      execs = 2;
      crashes = [];
      san_reports = [];
      crash_sigs = Hashtbl.create 4;
      san_sigs = Hashtbl.create 4;
    }
  in
  let result status =
    { Cdvm.Exec.stdout = ""; status; fuel_used = 10 }
  in
  Fuzz.Fuzzer.process st "a"
    (result (Cdvm.Trap.Trap Cdvm.Trap.Div_by_zero))
    ~novelty:0;
  Fuzz.Fuzzer.process st "b"
    (result (Cdvm.Trap.San_report "divide-by-zero"))
    ~novelty:0;
  check_int "crash recorded" 1 (List.length st.Fuzz.Fuzzer.crashes);
  check_int "sanitizer report recorded despite colliding signature" 1
    (List.length st.Fuzz.Fuzzer.san_reports);
  (* and each table still dedups within its own namespace *)
  Fuzz.Fuzzer.process st "c"
    (result (Cdvm.Trap.Trap Cdvm.Trap.Div_by_zero))
    ~novelty:0;
  Fuzz.Fuzzer.process st "d"
    (result (Cdvm.Trap.San_report "divide-by-zero"))
    ~novelty:0;
  check_int "duplicate crash deduped" 1 (List.length st.Fuzz.Fuzzer.crashes);
  check_int "duplicate sanitizer report deduped" 1
    (List.length st.Fuzz.Fuzzer.san_reports)

(* --- CompDiff-AFL++ --- *)

let unstable_parser_src =
  (* divergence only on a guarded path: the fuzzer must find the byte *)
  "int main() {\n\
   \  int tag = getchar();\n\
   \  if (tag == 85) {\n\
   \    int l;\n\
   \    print(\"field=%d\\n\", l);\n\
   \  } else {\n\
   \    print(\"tag=%d\\n\", tag);\n\
   \  }\n\
   \  return 0;\n\
   }"

let test_compdiff_afl_finds_divergence () =
  let c =
    Fuzz.Compdiff_afl.run
      ~config:
        {
          Fuzz.Compdiff_afl.default_config with
          Fuzz.Compdiff_afl.max_execs = 1_200;
          seeds = [ "T" ];
        }
      (frontend unstable_parser_src)
  in
  check_bool "divergence found" true (Fuzz.Compdiff_afl.found_divergence c);
  check_bool "oracle ran" true (c.Fuzz.Compdiff_afl.diff_checks > 0)

let test_compdiff_afl_stable_program_clean () =
  let c =
    Fuzz.Compdiff_afl.run
      ~config:
        { Fuzz.Compdiff_afl.default_config with Fuzz.Compdiff_afl.max_execs = 800 }
      (frontend branchy_src)
  in
  check_int "no divergence on stable program" 0
    (Compdiff.Triage.total_count c.Fuzz.Compdiff_afl.diffs)

let test_compdiff_afl_diff_every () =
  let c =
    Fuzz.Compdiff_afl.run
      ~config:
        {
          Fuzz.Compdiff_afl.default_config with
          Fuzz.Compdiff_afl.max_execs = 400;
          diff_every = 4;
        }
      (frontend branchy_src)
  in
  check_bool "reduced oracle rate" true
    (c.Fuzz.Compdiff_afl.diff_checks * 4 <= c.Fuzz.Compdiff_afl.fuzz.Fuzz.Fuzzer.execs + 4)

(* the Section 5 extension: a previously-unseen divergence signature
   makes the input interesting even without coverage gain *)
let test_divergence_feedback_mechanism () =
  (* straight-line program: every input takes the same path, so coverage
     never grows after the first execution; masking the junk with the
     input byte makes different bytes group the implementations
     differently, i.e. produce distinct divergence signatures *)
  let src =
    "int main() {\n\
     \  int junk;\n\
     \  print(\"%d\\n\", junk & getchar());\n\
     \  return 0;\n\
     }"
  in
  let run feedback =
    let c =
      Fuzz.Compdiff_afl.run
        ~config:
          {
            Fuzz.Compdiff_afl.default_config with
            Fuzz.Compdiff_afl.max_execs = 300;
            seeds = [ "A" ];
            divergence_feedback = feedback;
          }
        (frontend src)
    in
    List.length c.Fuzz.Compdiff_afl.fuzz.Fuzz.Fuzzer.queue
  in
  let with_fb = run true and without = run false in
  check_bool "feedback enqueues divergent inputs" true (with_fb > without)

(* --- batched checks against per-input checks --- *)

(* [Compdiff_afl.run] checks inputs in batches after the fact; this is
   the same campaign with every input checked as the fuzzer hands it
   over, one [Oracle.check] at a time, triaged and reduced on the spot. *)
let per_input_campaign (config : Fuzz.Compdiff_afl.config) tp =
  let fuzz_unit =
    Cdcompiler.Pipeline.compile Cdcompiler.Profiles.fuzz_profile tp
  in
  let oracle =
    Compdiff.Oracle.create ~profiles:config.Fuzz.Compdiff_afl.profiles
      ~normalize:config.normalize ~fuel:config.fuel
      ~jobs:(Cdutil.Pool.default_jobs ()) tp
  in
  let triage = Compdiff.Triage.create () in
  let counter = ref 0 and checks = ref 0 in
  let on_input input =
    incr counter;
    if !counter mod config.diff_every <> 0 then Fuzz.Fuzzer.Boring
    else begin
      incr checks;
      match Compdiff.Oracle.check oracle ~input with
      | Compdiff.Oracle.Agree _ -> Fuzz.Fuzzer.Boring
      | Compdiff.Oracle.Diverge obs ->
          let freshness = Compdiff.Triage.add triage oracle ~input obs in
          if freshness = `New && config.reduce_on_save then
            Option.iter
              (fun (r : Compdiff.Reduce.result) ->
                Compdiff.Triage.attach_reduced triage ~input
                  {
                    Compdiff.Triage.red_input = r.Compdiff.Reduce.red_input;
                    red_observations = r.red_observations;
                    red_checks = r.red_stats.Compdiff.Reduce.checks;
                  })
              (Compdiff.Reduce.reduce ~max_checks:config.reduce_checks oracle
                 ~input obs);
          if config.divergence_feedback && freshness = `New then
            Fuzz.Fuzzer.Interesting
          else Fuzz.Fuzzer.Boring
    end
  in
  let fuzz =
    Fuzz.Fuzzer.run
      ~config:
        {
          Fuzz.Fuzzer.default_config with
          Fuzz.Fuzzer.seeds = config.seeds;
          max_execs = config.max_execs;
          fuel = config.fuel;
          rng_seed = config.rng_seed;
          on_input = Some on_input;
        }
      fuzz_unit
  in
  (fuzz, triage, oracle, !checks)

(* a guarded divergence (tag 85) and divergences whose partition follows
   the input byte, so feedback has new signatures to act on *)
let mixed_divergence_src =
  "int main() {\n\
   \  int tag = getchar();\n\
   \  int junk;\n\
   \  if (tag == 85) {\n\
   \    int l;\n\
   \    print(\"field=%d\\n\", l);\n\
   \  } else if (tag > 100) {\n\
   \    print(\"%d\\n\", junk & tag);\n\
   \  } else {\n\
   \    print(\"tag=%d\\n\", tag);\n\
   \  }\n\
   \  return 0;\n\
   }"

let test_batched_checks_match_per_input () =
  let tp = frontend mixed_divergence_src in
  let base =
    {
      Fuzz.Compdiff_afl.default_config with
      Fuzz.Compdiff_afl.seeds = [ "T"; "z" ];
      max_execs = 640;
      fuel = 20_000;
      reduce_checks = 60;
    }
  in
  let entries triage =
    List.map
      (fun (e : Compdiff.Triage.diff_entry) ->
        ( e.Compdiff.Triage.input,
          e.signature,
          Option.map (fun r -> r.Compdiff.Triage.red_input) e.reduced ))
      (Compdiff.Triage.entries triage)
  in
  List.iter
    (fun (name, config) ->
      let c = Fuzz.Compdiff_afl.run ~config tp in
      let fuzz, triage, oracle, checks = per_input_campaign config tp in
      let same what = Printf.sprintf "%s: %s" name what in
      check_bool (same "divergences found") true
        (Compdiff.Triage.total_count triage > 0);
      check_bool (same "triage entries") true
        (entries c.Fuzz.Compdiff_afl.diffs = entries triage);
      check_int (same "diff_checks") checks c.Fuzz.Compdiff_afl.diff_checks;
      check_int (same "oracle checks")
        (Compdiff.Oracle.stats oracle).Compdiff.Oracle.checks
        (Compdiff.Oracle.stats c.Fuzz.Compdiff_afl.oracle).checks;
      check_bool (same "queue") true
        (c.Fuzz.Compdiff_afl.fuzz.Fuzz.Fuzzer.queue = fuzz.Fuzz.Fuzzer.queue);
      check_int (same "execs") fuzz.Fuzz.Fuzzer.execs
        c.Fuzz.Compdiff_afl.fuzz.Fuzz.Fuzzer.execs)
    [
      ("defaults", base);
      ( "divergence feedback",
        { base with Fuzz.Compdiff_afl.divergence_feedback = true } );
      ("diff_every 3", { base with Fuzz.Compdiff_afl.diff_every = 3 });
      ("max_execs 517", { base with Fuzz.Compdiff_afl.max_execs = 517 });
    ]

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "fuzz.mutator",
      [
        tc "deterministic" test_mutators_deterministic;
        tc "changes input" test_mutators_change_input;
        tc "empty input" test_mutators_handle_empty;
        tc "splice" test_splice_mixes;
      ] );
    ( "fuzz.queue",
      [
        tc "round robin" test_queue_roundrobin;
        tc "growth keeps sweep front" test_queue_growth_no_drift;
        tc "sweep covers all" test_queue_sweep_covers_all;
        tc "energy" test_queue_energy;
        tc "energy fitness" test_queue_energy_fitness;
        tc "energy exploration" test_queue_energy_exploration;
      ]
      @ List.map QCheck_alcotest.to_alcotest queue_props );
    ( "fuzz.fuzzer",
      [
        tc "queue grows" test_fuzzer_grows_queue;
        tc "empty seed corpus" test_fuzzer_empty_seeds;
        tc "single-byte seed" test_fuzzer_single_byte_seed;
        tc "reproducible" test_fuzzer_reproducible;
        tc "finds crash" test_fuzzer_finds_crash;
        tc "sanitizer integration" test_fuzzer_sanitizer_reports;
        tc "crash/sanitizer dedup tables split" test_dedup_tables_split;
      ] );
    ( "fuzz.compdiff_afl",
      [
        tc "finds divergence" test_compdiff_afl_finds_divergence;
        tc "stable program clean" test_compdiff_afl_stable_program_clean;
        tc "diff_every" test_compdiff_afl_diff_every;
        tc "divergence feedback" test_divergence_feedback_mechanism;
        tc "batched checks = per-input checks"
          test_batched_checks_match_per_input;
      ] );
  ]
