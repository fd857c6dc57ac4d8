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
   and the acceptance floor is 1.5x. *)

let json_escape = Overhead.json_escape

let sample () = Juliet.Suite.quick ~per_cwe:2 ()

(* the behavioural essence of a test evaluation: everything except the
   execution counters (which legitimately differ across regimes) *)
let essence (e : Juliet.Eval.test_eval) =
  ( e.Juliet.Eval.compdiff,
    e.Juliet.Eval.partition,
    e.Juliet.Eval.asan,
    e.Juliet.Eval.ubsan,
    e.Juliet.Eval.msan )

(* Single-shot wall clock is noisy (one-sided: runs only ever get
   slower, from scheduler interference and major-GC heap growth), so
   each regime is timed as the minimum over a few trials.  Regimes that
   must start empty (cold, restart) construct a fresh session inside
   every trial.  Each trial starts from a collected heap so no timed
   region pays the major-GC debt of a previous regime's garbage (the
   discarded sessions of earlier trials). *)
let trials = 3

let time f =
  let best = ref infinity in
  let result = ref None in
  for _ = 1 to trials do
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt;
    result := Some r
  done;
  (!best, Option.get !result)

let run () =
  let tests = sample () in
  let n = List.length tests in
  let eval session =
    Juliet.Eval.evaluate_suite ~session ~reduce:false ~jobs:1 tests
  in
  (* untimed warmup: grow the heap once so no timed regime pays the
     first-touch major-GC expansion cost *)
  ignore (eval (Engine.Session.create ~cache_mb:0 ()));
  let base_time, base_evals =
    time (fun () -> eval (Engine.Session.create ~cache_mb:0 ()))
  in
  let last_cold = ref None in
  let cold_time, cold_evals =
    time (fun () ->
        let s = Engine.Session.create ~cache_mb:128 () in
        let r = eval s in
        last_cold := Some s;
        r)
  in
  let cached = Option.get !last_cold in
  let warm_time, warm_evals = time (fun () -> eval cached) in
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
    time (fun () ->
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
    List.map essence base_evals = List.map essence cold_evals
    && List.map essence cold_evals = List.map essence warm_evals
    && List.map essence base_evals = List.map essence restart_evals
    && disk.Engine.Session.disk_hits > 0
  in
  let tps t = float_of_int n /. t in
  let speedup_cold = base_time /. cold_time in
  let speedup_warm = base_time /. warm_time in
  let st = Engine.Session.stats cached in
  let cache_json name (c : Engine.Session.cache_stats) =
    Printf.sprintf
      "  \"%s\": { \"hits\": %d, \"misses\": %d, \"hit_rate\": %.3f, \
       \"evictions\": %d, \"entries\": %d, \"bytes\": %d },\n"
      name c.Engine.Session.hits c.Engine.Session.misses
      (Engine.Session.hit_rate c)
      c.Engine.Session.evictions c.Engine.Session.entries
      c.Engine.Session.bytes
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"bench\": \"engine\",\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"metric\": \"%s\",\n"
       (json_escape
          "tests/sec = Juliet evaluations per second (oracle + sanitizer \
           probes per test); speedup = warm cached pass vs caching-disabled \
           session"));
  Buffer.add_string buf (Printf.sprintf "  \"tests\": %d,\n" n);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"nocache\": { \"seconds\": %.4f, \"tests_per_sec\": %.2f },\n"
       base_time (tps base_time));
  Buffer.add_string buf
    (Printf.sprintf
       "  \"cold\": { \"seconds\": %.4f, \"tests_per_sec\": %.2f, \
        \"speedup\": %.2f },\n"
       cold_time (tps cold_time) speedup_cold);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"warm\": { \"seconds\": %.4f, \"tests_per_sec\": %.2f, \
        \"speedup\": %.2f },\n"
       warm_time (tps warm_time) speedup_warm);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"restart_warm\": { \"seconds\": %.4f, \"tests_per_sec\": %.2f, \
        \"speedup\": %.2f, \"disk_hits\": %d, \"disk_misses\": %d, \
        \"disk_stores\": %d },\n"
       restart_time (tps restart_time)
       (base_time /. restart_time)
       disk.Engine.Session.disk_hits disk.Engine.Session.disk_misses
       disk.Engine.Session.disk_stores);
  Buffer.add_string buf (cache_json "unit_cache" st.Engine.Session.units);
  Buffer.add_string buf (cache_json "image_cache" st.Engine.Session.images);
  Buffer.add_string buf
    (cache_json "observation_store" st.Engine.Session.observations);
  Buffer.add_string buf
    (Printf.sprintf "  \"speedup\": %.2f,\n" speedup_warm);
  Buffer.add_string buf
    (Printf.sprintf "  \"speedup_target_met\": %b,\n" (speedup_warm >= 1.5));
  Buffer.add_string buf
    (Printf.sprintf "  \"verdicts_match\": %b\n" verdicts_match);
  Buffer.add_string buf "}\n";
  let path = "BENCH_engine.json" in
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf
    "Engine session bench (%d Juliet tests):\n\
    \  caching disabled: %.2f tests/s\n\
    \  cold session:     %.2f tests/s (%.2fx)\n\
    \  warm session:     %.2f tests/s (%.2fx)\n\
    \  restart (disk):   %.2f tests/s (%.2fx, %d disk hits)\n\
    \  unit cache %.0f%% hits, image cache %.0f%% hits, observation store \
     %.0f%% hits\n\
    \  verdicts match: %b\n\
     wrote %s\n\n"
    n (tps base_time) (tps cold_time) speedup_cold (tps warm_time)
    speedup_warm (tps restart_time)
    (base_time /. restart_time)
    disk.Engine.Session.disk_hits
    (100. *. Engine.Session.hit_rate st.Engine.Session.units)
    (100. *. Engine.Session.hit_rate st.Engine.Session.images)
    (100. *. Engine.Session.hit_rate st.Engine.Session.observations)
    verdicts_match path;
  if not verdicts_match then
    failwith "engine bench: cached verdicts differ from the fresh path"
