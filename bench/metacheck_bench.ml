(* Metamorphic meta-checker benchmark (emits BENCH_metacheck.json).

   Measures twin-analysis throughput (twins/sec: erase + re-typecheck +
   static tools + sanitizer builds + oracle per metamorphic twin) over a
   slice of the generated Juliet suite, batched over the shared
   {!Cdutil.Pool} versus the sequential naive path.

   Cross-validation: both paths must produce identical flag sets per
   program ({!Metacheck.Driver.essence}); a mismatch fails the bench. *)

(* one representative CWE per verdict family the meta-checker exercises *)
let sample_cwes = [ 190; 369; 457; 476; 121; 758 ]

let sample () =
  List.filter
    (fun (t : Juliet.Testcase.t) -> List.mem t.Juliet.Testcase.cwe sample_cwes)
    (Juliet.Suite.quick ~per_cwe:1 ())

let run () =
  let tests = sample () in
  let programs =
    List.map
      (fun (t : Juliet.Testcase.t) ->
        ( t.Juliet.Testcase.name,
          Juliet.Testcase.frontend_bad t,
          t.Juliet.Testcase.inputs ))
      tests
  in
  let session = Engine.Session.create ~cache_mb:128 () in
  let naive_time, naive =
    Record.time ~trials:1 (fun () ->
        List.map
          (fun (name, tp, inputs) ->
            Metacheck.Driver.analyze_naive ~session ~limit:2 ~name tp ~inputs)
          programs)
  in
  let batch_time, batched =
    Record.time ~trials:1 (fun () ->
        List.map
          (fun (name, tp, inputs) ->
            Metacheck.Driver.analyze ~session ~limit:2 ~name tp ~inputs)
          programs)
  in
  let verdicts_match =
    List.map Metacheck.Driver.essence naive
    = List.map Metacheck.Driver.essence batched
  in
  let twins =
    List.fold_left
      (fun n (r : Metacheck.Driver.result) ->
        n + r.Metacheck.Driver.mc_preserving
        + r.Metacheck.Driver.mc_eliminating)
      0 naive
  in
  let flags =
    List.fold_left
      (fun n (r : Metacheck.Driver.result) ->
        n + List.length r.Metacheck.Driver.mc_flags)
      0 naive
  in
  let retype_failures =
    List.fold_left
      (fun n (r : Metacheck.Driver.result) ->
        n + List.length r.Metacheck.Driver.mc_retype_failures)
      0 naive
  in
  let r =
    Record.create ~bench:"metacheck"
      ~about:
        "twins/s = metamorphic twins fully analyzed per second (erase + \
         re-typecheck + 4 static tools + 3 sanitizers + oracle); speedup = \
         pool-batched vs sequential naive path"
  in
  Record.count r "programs" (List.length programs);
  Record.count r "twins" twins;
  Record.count r "flags" flags;
  Record.count r "retype_failures" retype_failures;
  Record.rate r "naive" "twins/s" twins naive_time;
  Record.rate r "batched" "twins/s" twins batch_time;
  Record.ratio r "speedup" "batched" "naive";
  Record.holds r "verdicts_match" verdicts_match;
  Record.emit r;
  if not verdicts_match then
    failwith "metacheck bench: batched flags differ from the naive path";
  if retype_failures > 0 then
    failwith "metacheck bench: a preserving twin failed to re-typecheck"
