(* VM executor benchmark (emits BENCH_vm.json): raw interpretation
   throughput of the tree-walking reference vs the linked-image executor
   with a persistent arena, plus the end-to-end effect on oracle
   throughput.  An "interleaved" row prices rebinding: a round-robin
   over one program's ten profile images, one input per turn, on the
   domain's arena (every run a rebind) beside the same round-robin with
   one caller-owned arena per image (every run a reset).

   "execs/s" here is plain VM executions per second of a single
   binary; "checks/s" is full oracle checks (one input judged against
   the whole differential set), running on the domain's arena.  The
   two executors must stay byte-identical, so every timed run is also
   compared against the reference result.

   Idle pool domains that an earlier section leaves behind join every
   stop-the-world minor collection, which taxes the allocation-heavy
   reference interpreter more than the linked executor, so the section
   quiesces the pool first, and the two rows the [speedup] gate divides
   are timed in alternating rounds under the same machine noise. *)

let workload () =
  [ (Lazy.force Overhead.listing1_tp, List.init 32 (fun i -> String.make 1 (Char.chr (33 + i))));
    (Lazy.force Overhead.escalator_tp,
     List.init 8 (fun i -> String.make 1 (Char.chr (40 + i))) @ [ "z"; "~" ]) ]

let fuel = 100_000
let trials = 3
let config input = { Cdvm.Exec.default_config with Cdvm.Exec.input; fuel }

(* the result of the last of [reps] calls of [f] *)
let repeat reps f () =
  let last = ref [] in
  for _ = 1 to reps do
    last := f ()
  done;
  !last

(* [reps] rounds of every image's inputs through [Exec.run_linked], one
   persistent arena per image: the linked row here, and the row the
   trace section's silent observer is gated against *)
let linked ~reps arenas =
  repeat reps (fun () ->
      List.concat_map
        (fun (img, arena, inputs) ->
          List.map
            (fun input -> Cdvm.Exec.run_linked ~config:(config input) ~arena img)
            inputs)
        arenas)

(* time [f] over [trials] and its minor words per exec over [n] execs
   a trial *)
let time_words n f =
  let w0 = Gc.minor_words () in
  let secs, r = Record.time ~trials f in
  (secs, r, (Gc.minor_words () -. w0) /. float_of_int (trials * n))

(* minor words per exec of one call of [f], which runs [n] execs *)
let words_per_exec n f =
  let w0 = Gc.minor_words () in
  ignore (f ());
  (Gc.minor_words () -. w0) /. float_of_int n

let run () =
  Cdutil.Pool.quiesce ();
  Gc.compact ();
  let profile = Cdcompiler.Profiles.gccx "O0" in
  let units =
    List.map
      (fun (tp, inputs) -> (Cdcompiler.Pipeline.compile profile tp, inputs))
      (workload ())
  in
  let nexecs_round =
    List.fold_left (fun a (_, inputs) -> a + List.length inputs) 0 units
  in
  let reps = 400 in
  let total = reps * nexecs_round in
  (* reference: tree-walking interpreter, fresh state per run *)
  let reference () =
    List.concat_map
      (fun (u, inputs) ->
        List.map (fun input -> Cdvm.Exec.run ~config:(config input) u) inputs)
      units
  in
  (* linked: pre-resolved image + one persistent arena per image *)
  let arenas =
    List.map
      (fun (u, inputs) ->
        let img = Cdvm.Image.link u in
        (img, Cdvm.Arena.create img, inputs))
      units
  in
  let ref_words = words_per_exec nexecs_round reference
  and lin_words = words_per_exec nexecs_round (linked ~reps:1 arenas) in
  let ref_time, ref_results, lin_time, lin_results =
    match Record.alternate ~trials ~rounds:reps [ reference; linked ~reps:1 arenas ] with
    | [ (ref_time, ref_results); (lin_time, lin_results) ] ->
        (ref_time, ref_results, lin_time, lin_results)
    | _ -> assert false
  in
  (* batched: whole per-image input sets through one [Exec.run_batch]
     call (single arena validation, amortized reset) *)
  let batch_inputs =
    List.map (fun (img, arena, inputs) -> (img, arena, Array.of_list inputs)) arenas
  in
  let bat_config = { Cdvm.Exec.default_config with Cdvm.Exec.fuel } in
  let bat_time, bat_results, bat_words =
    time_words total
      (repeat reps (fun () ->
           List.concat_map
             (fun (img, arena, inputs) ->
               Array.to_list (Cdvm.Exec.run_batch ~config:bat_config ~arena img ~inputs))
             batch_inputs))
  in
  (* interleaved: turn [k] runs input [k] on image [k mod 10] *)
  let tp0, inputs0 = List.hd (workload ()) in
  let ring =
    Array.of_list
      (List.map
         (fun p ->
           let u = Cdcompiler.Pipeline.compile p tp0 in
           let img = Cdvm.Image.link u in
           (u, img, Cdvm.Arena.create img))
         Cdcompiler.Profiles.all)
  in
  let turns =
    List.mapi (fun k input -> (ring.(k mod Array.length ring), input)) inputs0
  in
  let int_total = reps * List.length turns in
  let int_want =
    List.map (fun ((u, _, _), input) -> Cdvm.Exec.run ~config:(config input) u) turns
  in
  let interleave run =
    time_words int_total
      (repeat reps (fun () ->
           List.map (fun ((_, img, arena), input) -> run img arena input) turns))
  in
  let int_time, int_results, int_words =
    interleave (fun img _ input -> Cdvm.Exec.run_linked ~config:(config input) img)
  in
  let pool_time, pool_results, _ =
    interleave (fun img arena input ->
        Cdvm.Exec.run_linked ~config:(config input) ~arena img)
  in
  let execs_match =
    ref_results = lin_results && ref_results = bat_results
    && int_results = int_want && pool_results = int_want
  in
  (* end-to-end: oracle checks/sec, naive reference path vs the linked
     path on the domain's arena (both sequential so only the executor and
     linking differ) *)
  let oracles =
    List.map
      (fun (tp, inputs) ->
        (Compdiff.Oracle.create ~fuel ~jobs:1 ~dedup:true tp, inputs))
      (workload ())
  in
  let oreps = 8 in
  let nchecks =
    oreps
    * List.fold_left (fun a (_, inputs) -> a + List.length inputs) 0 oracles
  in
  let naive_time, naive_verdicts =
    Record.time ~trials
      (Overhead.check_rounds ~reps:oreps Compdiff.Oracle.check_naive oracles)
  in
  let linked_time, linked_verdicts =
    Record.time ~trials
      (Overhead.check_rounds ~reps:oreps Compdiff.Oracle.check oracles)
  in
  (* batched oracle: the same checks through [check_batch] (per-class
     batched VM sessions, level-synchronous escalation) *)
  let obatch_time, obatch_verdicts =
    Record.time ~trials (fun () ->
        List.concat_map
          (fun _ ->
            List.concat_map
              (fun (o, inputs) ->
                Array.to_list
                  (Compdiff.Oracle.check_batch o
                     ~inputs:(Array.of_list inputs)))
              oracles)
          (List.init oreps Fun.id))
  in
  let verdicts_match =
    execs_match
    && naive_verdicts = linked_verdicts
    && naive_verdicts = obatch_verdicts
  in
  let r =
    Record.create ~bench:"vm"
      ~about:
        "execs/s = raw VM executions per second of one gccx-O0 binary; \
         checks/s = oracle checks per second"
  in
  Record.count r "execs" total;
  Record.rate r "reference" "execs/s" total ref_time;
  Record.value r "reference.minor_words_per_exec" "words" ref_words;
  Record.rate r "linked" "execs/s" total lin_time;
  Record.value r "linked.minor_words_per_exec" "words" lin_words;
  Record.rate r "batched" "execs/s" total bat_time;
  Record.value r "batched.minor_words_per_exec" "words" bat_words;
  Record.count r "interleaved.images" (Array.length ring);
  Record.count r "interleaved.execs" int_total;
  Record.rate r "interleaved.domain_arena" "execs/s" int_total int_time;
  Record.rate r "interleaved.arena_per_image" "execs/s" int_total pool_time;
  Record.value r "interleaved.minor_words_per_exec" "words" int_words;
  Record.ratio r "speedup" "linked" "reference";
  Record.ratio r "speedup_batched" "batched" "reference";
  Record.count r "oracle.checks" nchecks;
  Record.rate r "oracle.naive" "checks/s" nchecks naive_time;
  Record.rate r "oracle.linked" "checks/s" nchecks linked_time;
  Record.rate r "oracle.batched" "checks/s" nchecks obatch_time;
  Record.ratio r "oracle.speedup" "oracle.linked" "oracle.naive";
  Record.ratio r "oracle.speedup_batched" "oracle.batched" "oracle.naive";
  Record.at_least r "speedup" 2.0;
  Record.holds r "verdicts_match" verdicts_match;
  Record.emit r;
  if not verdicts_match then failwith "vm bench: executor mismatch"
