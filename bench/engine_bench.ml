(* Engine session-layer benchmark (emits BENCH_engine.json).

   Measures Juliet-suite evaluation throughput (tests/sec; compile the
   bad+good variants for all ten profiles, run the oracle over the bug
   inputs, probe the three sanitizer builds) under three regimes:

   - [nocache]   a caching-disabled session — every stage recomputes
                 (the reference the caches are validated against);
   - [cold]      a fresh caching session — first pass pays the misses
                 but already shares work within the suite (the
                 sanitizer builds reuse the oracle's gccx-O0 unit);
   - [warm]      the same session again — compiles, links and
                 observations are served from the caches.  The store
                 admits an observation on its key's second request;
                 a pass requests each of the sample's observations
                 twice, so the cold pass stores every one (its first
                 request is declined) and the warm pass hits them all.

   Cross-validation: all three passes must produce structurally
   identical verdicts (detections, partitions, sanitizer results); a
   mismatch fails the bench.  The headline speedup is warm vs nocache
   and the acceptance floor is 1.5x.

   [reduce_chain] prices a reducer's access pattern: along a chain of
   [Reduce.candidates] on two Table 4 targets, every typed candidate is
   compiled under the target's profiles, and every unit signed and
   linked, on a fresh 64 MiB session (the per-function memo), beside the
   same work on a caching-disabled one.  Its gate is a count that
   machine noise cannot move: a one-statement candidate after its
   parent lowers at most one function per lowering policy. *)

let sample () = Juliet.Suite.quick ~per_cwe:2 ()

(* the behavioural essence of a test evaluation: everything except the
   execution counters (which legitimately differ across regimes) *)
let essence (e : Juliet.Eval.test_eval) =
  ( e.Juliet.Eval.compdiff,
    e.Juliet.Eval.partition,
    e.Juliet.Eval.asan,
    e.Juliet.Eval.ubsan,
    e.Juliet.Eval.msan )

let chain_targets = [ "exiv2"; "gpac" ]

let typed_candidates (p : Minic.Ast.program) : (Minic.Ast.program * Minic.Tast.tprogram) Seq.t =
  Seq.filter_map
    (fun c ->
      match Minic.Typecheck.check_program_result c with
      | Ok tp -> Some (c, tp)
      | Error _ -> None)
    (Compdiff.Reduce.candidates p)

(* four steps of six typed candidates each, stepping to the last one as
   an accepted reduction would *)
let candidate_chain (p : Minic.Ast.program) : Minic.Tast.tprogram list =
  let rec steps n cur =
    if n = 0 then []
    else
      let batch = List.of_seq (Seq.take 6 (typed_candidates cur)) in
      List.map snd batch
      @ match List.rev batch with (c, _) :: _ -> steps (n - 1) c | [] -> []
  in
  steps 4 p

(* every unit of [tp] under [profiles], signed and linked through [s]:
   the signatures, in profile order *)
let compile_sign_link s profiles tp =
  List.map
    (fun (_, u) ->
      let signature =
        Compdiff.Binsig.signature ?memo:(Engine.Session.facts_memo s u) u
      in
      ignore (Engine.Session.link s u);
      signature)
    (Engine.Session.compile_profiles ~jobs:1 s profiles tp)

(* Functions lowered for the second candidate after [p]'s parent
   program that edits one typed function and keeps the globals, after
   the parent and the first one (a lowering is stored on its second
   request). *)
let lowered_per_candidate (p : Projects.Project.t) profiles : int =
  let parent = Projects.Project.frontend p in
  let funcs tp =
    List.map (fun f -> Marshal.to_string f [ Marshal.No_sharing ]) tp.Minic.Tast.tfuncs
  in
  let edits_one tp =
    tp.Minic.Tast.tglobals = parent.Minic.Tast.tglobals
    && List.length tp.Minic.Tast.tfuncs = List.length parent.Minic.Tast.tfuncs
    && List.length (List.filter not (List.map2 String.equal (funcs tp) (funcs parent)))
       = 1
  in
  let earlier, candidate =
    match
      List.of_seq
        (Seq.take 2
           (Seq.filter (fun (_, tp) -> edits_one tp)
              (typed_candidates p.Projects.Project.program)))
    with
    | [ (_, earlier); (_, candidate) ] -> (earlier, candidate)
    | _ -> failwith "engine bench: fewer than two one-function candidates"
  in
  let s = Engine.Session.create ~cache_mb:64 () in
  ignore (compile_sign_link s profiles parent);
  ignore (compile_sign_link s profiles earlier);
  Engine.Session.reset_stats s;
  ignore (compile_sign_link s profiles candidate);
  (List.assoc "lower" (Engine.Session.stats s).Engine.Session.stages)
    .Engine.Session.stage_misses

let reduce_chain r =
  let chains =
    List.map
      (fun name ->
        let p = Option.get (Projects.Registry.by_name name) in
        (p, Projects.Project.profiles_for p, candidate_chain p.Projects.Project.program))
      chain_targets
  in
  let ncandidates = List.fold_left (fun n (_, _, c) -> n + List.length c) 0 chains in
  let pass cache_mb () =
    List.map
      (fun (_, profiles, chain) ->
        let s = Engine.Session.create ~cache_mb () in
        List.map (compile_sign_link s profiles) chain)
      chains
  in
  let memo_time, memo_sigs, ref_time, ref_sigs =
    match Record.alternate [ pass 64; pass 0 ] with
    | [ (memo_time, memo_sigs); (ref_time, ref_sigs) ] ->
        (memo_time, memo_sigs, ref_time, ref_sigs)
    | _ -> assert false
  in
  let lowered, policies =
    List.fold_left
      (fun (lowered, policies) (p, profiles, _) ->
        ( max lowered (lowered_per_candidate p profiles),
          max policies
            (List.length
               (List.sort_uniq compare (List.map Cdcompiler.Policy.lowering_of profiles)))
        ))
      (0, 0) chains
  in
  Record.count r "reduce_chain.candidates" ncandidates;
  Record.rate r "reduce_chain" "candidates/s" ncandidates memo_time;
  Record.rate r "reduce_chain.nocache" "candidates/s" ncandidates ref_time;
  Record.ratio r "reduce_chain.speedup" "reduce_chain" "reduce_chain.nocache";
  Record.count r "reduce_chain.lowered_per_candidate" lowered;
  Record.at_most r "reduce_chain.lowered_per_candidate" (float_of_int policies);
  memo_sigs = ref_sigs

(* Regimes that must start empty (cold, restart) construct a fresh
   session inside every trial; each trial of {!Record.time} starts from
   a collected heap, so no timed region pays the major-GC debt of a
   previous regime's garbage (the discarded sessions of earlier
   trials). *)
let run () =
  let tests = sample () in
  let n = List.length tests in
  let eval session =
    List.map essence
      (Juliet.Eval.evaluate_suite ~session ~reduce:false ~jobs:1 tests)
  in
  (* untimed warmup: grow the heap once so no timed regime pays the
     first-touch major-GC expansion cost *)
  ignore (eval (Engine.Session.create ~cache_mb:0 ()));
  let base_time, base_evals =
    Record.time (fun () -> eval (Engine.Session.create ~cache_mb:0 ()))
  in
  let last_cold = ref None in
  let cold_time, cold_evals =
    Record.time (fun () ->
        let s = Engine.Session.create ~cache_mb:128 () in
        let r = eval s in
        last_cold := Some s;
        r)
  in
  let cached = Option.get !last_cold in
  let warm_time, warm_evals = Record.time (fun () -> eval cached) in
  (* restart-warm: populate a disk store with one session, then discard
     it and evaluate through a brand-new session over the same directory.
     The new session's in-memory LRUs start empty, so every hit it gets
     comes back from disk -- the cross-restart persistence claim. *)
  let disk_dir =
    let d = Filename.temp_file "compdiff-bench-disk" "" in
    Sys.remove d;
    d
  in
  let seeder = Engine.Session.create ~cache_mb:128 ~disk_dir () in
  let _ = eval seeder in
  let last_restart = ref None in
  let restart_time, restart_evals =
    Record.time (fun () ->
        let s = Engine.Session.create ~cache_mb:128 ~disk_dir () in
        let r = eval s in
        last_restart := Some s;
        r)
  in
  let restart_stats = Engine.Session.stats (Option.get !last_restart) in
  let disk =
    match restart_stats.Engine.Session.disk with
    | Some d -> d
    | None -> failwith "engine bench: restart session has no disk store"
  in
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  (try rm_rf disk_dir with Sys_error _ -> ());
  let verdicts_match =
    base_evals = cold_evals && cold_evals = warm_evals
    && base_evals = restart_evals
    && disk.Engine.Session.disk_hits > 0
  in
  let st = Engine.Session.stats cached in
  let r =
    Record.create ~bench:"engine"
      ~about:
        "tests/s = Juliet evaluations per second (oracle + sanitizer probes \
         per test); speedup = warm cached pass vs caching-disabled session"
  in
  Record.count r "tests" n;
  List.iter
    (fun (name, secs) ->
      Record.rate r name "tests/s" n secs;
      if name <> "nocache" then
        Record.ratio r (name ^ ".speedup") name "nocache")
    [ ("nocache", base_time); ("cold", cold_time); ("warm", warm_time);
      ("restart_warm", restart_time) ];
  Record.count r "restart_warm.disk_hits" disk.Engine.Session.disk_hits;
  Record.count r "restart_warm.disk_misses" disk.Engine.Session.disk_misses;
  Record.count r "restart_warm.disk_stores" disk.Engine.Session.disk_stores;
  List.iter
    (fun (cache, (c : Engine.Session.cache_stats)) ->
      let field name n = Record.count r (cache ^ "." ^ name) n in
      field "hits" c.Engine.Session.hits;
      field "misses" c.Engine.Session.misses;
      Record.value r (cache ^ ".hit_rate") "ratio" (Engine.Session.hit_rate c);
      field "evictions" c.Engine.Session.evictions;
      field "entries" c.Engine.Session.entries;
      Record.value r (cache ^ ".bytes") "bytes" (float_of_int c.Engine.Session.bytes))
    [ ("unit_cache", st.Engine.Session.units);
      ("image_cache", st.Engine.Session.images);
      ("observation_store", st.Engine.Session.observations) ];
  let chain_signatures_match = reduce_chain r in
  let verdicts_match = verdicts_match && chain_signatures_match in
  Record.at_least r "warm.speedup" 1.5;
  Record.at_least r "restart_warm.disk_hits" 1.;
  Record.holds r "verdicts_match" verdicts_match;
  Record.emit r;
  if not verdicts_match then
    failwith "engine bench: cached verdicts differ from the fresh path"
