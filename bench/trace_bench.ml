(* Trace recorder benchmark (emits BENCH_trace.json): the cost of
   observation at each level of the unified [Observer] interface, and
   the payoff of snapshot-accelerated seeking in the trace store.

   Throughput rows over the BENCH_vm workload (same programs, inputs and
   fuel), all entered through [Exec.run_linked]:

   - linked: BENCH_vm's linked loop ([Vm_bench.linked]), timed here
     with silent in alternating rounds (a round runs every input once;
     a trial is [reps] rounds of each);
   - silent: this harness's observer loop with [Observer.silent], the
     oracle's path.  It makes the same call as linked, so the gate
     (silent at least 95% of linked, medians of the alternating trials)
     guards that the harness's silent row stays the executor's plain
     path ("no observation costs nothing") under the same machine noise;
   - prints: a per-print callback, the level classic localization uses;
   - steps: full [Cdtrace] recording (every pc, register write, memory
     write, call/return), the time-travel explorer's input.  It runs on
     the tree-walking reference interpreter, so the row prices the
     reference's dispatch plus the recorder's sink.  The gate is a
     slowdown over silent of at most [steps_gate].

   Recording must never perturb execution: every recorded run's
   [Exec.result] is compared byte-for-byte against the silent run's.

   The seek row records one long trace (~1e5 steps) and times random
   [seek]s with the periodic snapshots against [seek_slow]'s
   replay-from-zero, reporting per-seek latency for both. *)

(* Ceiling on steps recording over silent.  Recording runs on the
   reference interpreter; six runs on a 2-vCPU machine measured 5.4x to
   6.8x (the old stepped executor measured 3.5x to 4.8x), and the ratio
   moves with the silent row's noise.  The ceiling sits about 1.2x above
   the worst run, so a real recorder regression trips it and the
   spread does not. *)
let steps_gate = 8.0

let run () =
  (* earlier bench sections leave idle pool domains behind, and every
     one of them joins each stop-the-world minor collection -- which
     taxes the allocation-heavy steps recorder ~4x.  This is a
     single-domain measurement, so quiesce the pool first (it is
     rebuilt lazily if a later section needs it). *)
  Cdutil.Pool.quiesce ();
  Gc.compact ();
  let profile = Cdcompiler.Profiles.gccx "O0" in
  let images =
    List.map
      (fun (tp, inputs) ->
        (Cdvm.Image.link (Cdcompiler.Pipeline.compile profile tp), inputs))
      (Vm_bench.workload ())
  in
  let nexecs_round =
    List.fold_left (fun a (_, inputs) -> a + List.length inputs) 0 images
  in
  let reps = 100 in
  let total = reps * nexecs_round in
  let arenas =
    List.map (fun (img, inputs) -> (img, Cdvm.Arena.create img, inputs)) images
  in
  (* one round: every input once under [observer] *)
  let observe observer () =
    List.concat_map
      (fun (img, arena, inputs) ->
        List.map
          (fun input ->
            let config =
              { Cdvm.Exec.default_config with
                Cdvm.Exec.input; fuel = Vm_bench.fuel; observer }
            in
            Cdvm.Exec.run_linked ~config ~arena img)
          inputs)
      arenas
  in
  let lin_time, sil_time, sil_results =
    match
      Record.alternate ~rounds:reps
        [ Vm_bench.linked ~reps:1 arenas; observe Cdvm.Observer.silent ]
    with
    | [ (lin_time, _); (sil_time, sil_results) ] -> (lin_time, sil_time, sil_results)
    | _ -> assert false
  in
  (* prints: one callback per executed print statement *)
  let printed = ref 0 in
  let pr_time, pr_results =
    Record.time
      (Vm_bench.repeat reps
         (observe (Cdvm.Observer.prints (fun ~fn:_ _ -> incr printed))))
  in
  (* steps: a full Cdtrace recording per execution (fresh memory: the
     recorder mirrors the run, so no arena on this path) *)
  let st_time, st_results =
    Record.time
      (Vm_bench.repeat reps (fun () ->
           List.concat_map
             (fun (img, inputs) ->
               List.map
                 (fun input ->
                   snd (Cdtrace.record ~fuel:Vm_bench.fuel img ~impl:"bench" ~input))
                 inputs)
             images))
  in
  let replay_match = sil_results = pr_results && sil_results = st_results in
  (* seek: one long trace, random positions, snapshots vs linear replay *)
  let seek_img, _ = List.nth images 1 in
  let tr, _ = Cdtrace.record ~fuel:2_000_000 seek_img ~impl:"bench" ~input:"z" in
  let nsteps = Cdtrace.length tr in
  let nseeks = 200 in
  let positions =
    (* fixed-seed LCG: deterministic, scattered over the whole trace *)
    let s = ref 12345 in
    Array.init nseeks (fun _ ->
        s := ((!s * 1103515245) + 12347) land 0x3FFFFFFF;
        !s mod max 1 nsteps)
  in
  let cur = Cdtrace.cursor tr in
  let seeks ?trials seek =
    fst
      (Record.time ?trials (fun () ->
           Array.iter (fun k -> seek cur k) positions;
           Cdtrace.pos cur))
    |> List.map (fun s -> s /. float_of_int nseeks *. 1e6)
  in
  let snap_us = seeks Cdtrace.seek in
  let slow_us = seeks ~trials:1 Cdtrace.seek_slow in
  let r =
    Record.create ~bench:"trace"
      ~about:
        "execs/s per observer level (linked, silent and prints on the linked \
         executor, steps on the reference interpreter); seek latency is \
         microseconds per random reposition of a replay cursor"
  in
  Record.count r "execs" total;
  Record.rate r "linked" "execs/s" total lin_time;
  Record.rate r "silent" "execs/s" total sil_time;
  Record.rate r "prints" "execs/s" total pr_time;
  Record.count r "prints.callbacks" !printed;
  Record.rate r "steps" "execs/s" total st_time;
  Record.ratio r "silent_over_linked" "silent" "linked";
  Record.ratio r "prints_over_silent" "prints" "silent";
  Record.ratio r "steps_slowdown" "silent" "steps";
  Record.count r "seek.trace_steps" nsteps;
  Record.count r "seek.seeks" nseeks;
  Record.add r "seek.snapshot" "us/seek" snap_us;
  Record.add r "seek.linear" "us/seek" slow_us;
  Record.ratio r "seek.speedup" "seek.linear" "seek.snapshot";
  Record.at_least r "silent_over_linked" 0.95;
  Record.at_most r "steps_slowdown" steps_gate;
  Record.holds r "replay_match" replay_match;
  Record.emit r;
  if not replay_match then failwith "trace bench: observer perturbed execution"
