(* Labeled-corpus generator benchmark (emits BENCH_gen.json).

   Two measurements:

   - generator throughput: programs/sec through the full emission path
     (effect-typed generation, pretty-printing, re-parse + typecheck of
     the emitted source) — the floor is 500/s, far above what a fuzzing
     campaign consumes;
   - corpus quality on a fixed sweep: pair count, clean-twin divergence
     count (any nonzero disproves the generator's soundness argument),
     the oracle's measured FN rate on the injected twins, and
     naive-vs-session verdict equality on a sample (the deduped/pooled
     oracle must be observationally identical to the sequential one).

   Throughput is the median of a few trials (wall clock is one-sided
   noisy); quality is deterministic given the seed range. *)

let run () =
  (* throughput: generate + print + re-elaborate [n] programs *)
  let n = 300 in
  let emit seed =
    let src =
      Minic.Pretty.program_to_string (Gen.Effgen.generate ~seed).Gen.Effgen.prog
    in
    match Minic.frontend_of_source src with
    | Ok _ -> ()
    | Error m -> failwith (Printf.sprintf "gen bench: seed %d: %s" seed m)
  in
  ignore (emit 0) (* warmup: touch the heap once *);
  let dt, () =
    Record.time (fun () ->
        for seed = 0 to n - 1 do
          emit seed
        done)
  in
  (* corpus quality on a fixed sweep *)
  let sweep = 50 in
  let session = Engine.Session.create ~cache_mb:64 () in
  let results =
    List.init sweep (fun seed -> Gen.Corpus.make ~seed ())
  in
  let pairs = List.filter_map Result.to_option results in
  let gen_failures = sweep - List.length pairs in
  let evals = Gen.Corpus.evaluate ~session pairs in
  let report = Gen.Corpus.report ~gen_failures evals in
  let fn_rate = Gen.Corpus.oracle_fn_rate report in
  let verdicts_match =
    List.for_all
      (fun p -> Gen.Corpus.naive_agrees ~session p)
      (List.filteri (fun i _ -> i < 10) pairs)
  in
  let r =
    Record.create ~bench:"gen"
      ~about:
        "programs/s = labeled programs generated, printed and re-typechecked \
         per second; corpus quality over a fixed seed sweep"
  in
  Record.count r "programs" n;
  Record.rate r "per_sec" "programs/s" n dt;
  Record.count r "pairs" (List.length pairs);
  Record.count r "gen_failures" gen_failures;
  Record.count r "clean_divergences" report.Gen.Corpus.clean_divergences;
  Record.value r "oracle_fn_rate" "ratio" fn_rate;
  Record.at_least r "per_sec" 500.;
  Record.at_most r "clean_divergences" 0.;
  (* reported: a rate in [0, 1], not a missing row or NaN *)
  Record.at_least r "oracle_fn_rate" 0.;
  Record.holds r "verdicts_match" verdicts_match;
  Record.emit r;
  if report.Gen.Corpus.clean_divergences > 0 then
    failwith "gen bench: a clean twin diverged (generator soundness)";
  if not verdicts_match then
    failwith "gen bench: session and naive oracle verdicts differ"
