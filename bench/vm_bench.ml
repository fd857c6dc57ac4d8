(* VM executor benchmark (emits BENCH_vm.json): raw interpretation
   throughput of the tree-walking reference vs the linked-image executor
   with a persistent arena, plus the end-to-end effect on oracle
   throughput.  An "interleaved" row prices rebinding: a round-robin
   over one program's ten profile images, one input per turn, on the
   domain's arena (every run a rebind) beside the same round-robin with
   one caller-owned arena per image (every run a reset).

   "execs/sec" here is plain VM executions per second of a single
   binary; "checks/sec" is full oracle checks (one input judged against
   the whole differential set), running on the domain's arena.  The
   two executors must stay byte-identical, so every timed run is also
   compared against the reference result. *)

let workload () =
  [ (Lazy.force Overhead.listing1_tp, List.init 32 (fun i -> String.make 1 (Char.chr (33 + i))));
    (Lazy.force Overhead.escalator_tp,
     List.init 8 (fun i -> String.make 1 (Char.chr (40 + i))) @ [ "z"; "~" ]) ]

let fuel = 100_000

(* Single-shot wall clock is noisy on a shared machine, and the
   interference is one-sided (runs only ever get slower), so the minimum
   over a few trials is the stable estimator.  Every trial's result goes
   through the same byte-identity comparison.  Each trial starts from a
   collected heap so later-timed configurations don't inherit the
   major-GC debt of earlier ones' garbage. *)
let trials = 3

let time ?(trials = trials) f =
  let best = ref infinity in
  let result = ref None in
  for _ = 1 to trials do
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt;
    (match !result with
    | Some prev when prev <> r -> failwith "vm bench: trial results differ"
    | _ -> ());
    result := Some r
  done;
  (!best, Option.get !result)

let run () =
  let profile = Cdcompiler.Profiles.gccx "O0" in
  let units =
    List.map
      (fun (tp, inputs) -> (Cdcompiler.Pipeline.compile profile tp, inputs))
      (workload ())
  in
  let images = List.map (fun (u, inputs) -> (Cdvm.Image.link u, inputs)) units in
  let nexecs_round =
    List.fold_left (fun a (_, inputs) -> a + List.length inputs) 0 units
  in
  let reps = 400 in
  let total = reps * nexecs_round in
  let config input = { Cdvm.Exec.default_config with Cdvm.Exec.input; fuel } in
  (* reference: tree-walking interpreter, fresh state per run *)
  let ref_words0 = Gc.minor_words () in
  let ref_time, ref_results =
    time (fun () ->
        let last = ref [] in
        for _ = 1 to reps do
          last :=
            List.concat_map
              (fun (u, inputs) ->
                List.map
                  (fun input -> Cdvm.Exec.run ~config:(config input) u)
                  inputs)
              units
        done;
        !last)
  in
  let ref_words = Gc.minor_words () -. ref_words0 in
  (* linked: pre-resolved image + one persistent arena per image *)
  let arenas = List.map (fun (img, inputs) -> (img, Cdvm.Arena.create img, inputs)) images in
  let lin_words0 = Gc.minor_words () in
  let lin_time, lin_results =
    time (fun () ->
        let last = ref [] in
        for _ = 1 to reps do
          last :=
            List.concat_map
              (fun (img, arena, inputs) ->
                List.map
                  (fun input ->
                    Cdvm.Exec.run_linked ~config:(config input) ~arena img)
                  inputs)
              arenas
        done;
        !last)
  in
  let lin_words = Gc.minor_words () -. lin_words0 in
  (* batched: whole per-image input sets through one [Exec.run_batch]
     call (single arena validation, amortized reset) *)
  let batch_inputs =
    List.map
      (fun (img, arena, inputs) -> (img, arena, Array.of_list inputs))
      arenas
  in
  let bat_config = { Cdvm.Exec.default_config with Cdvm.Exec.fuel } in
  let bat_words0 = Gc.minor_words () in
  let bat_time, bat_results =
    time (fun () ->
        let last = ref [] in
        for _ = 1 to reps do
          last :=
            List.concat_map
              (fun (img, arena, inputs) ->
                Array.to_list
                  (Cdvm.Exec.run_batch ~config:bat_config ~arena img ~inputs))
              batch_inputs
        done;
        !last)
  in
  let bat_words = Gc.minor_words () -. bat_words0 in
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
    time (fun () ->
        let last = ref [] in
        for _ = 1 to reps do
          last := List.map (fun ((_, img, arena), input) -> run img arena input) turns
        done;
        !last)
  in
  let int_words0 = Gc.minor_words () in
  let int_time, int_results =
    interleave (fun img _ input -> Cdvm.Exec.run_linked ~config:(config input) img)
  in
  let int_words = Gc.minor_words () -. int_words0 in
  let pool_time, pool_results =
    interleave (fun img arena input ->
        Cdvm.Exec.run_linked ~config:(config input) ~arena img)
  in
  let int_eps = float_of_int int_total /. int_time in
  let pool_eps = float_of_int int_total /. pool_time in
  let execs_match =
    ref_results = lin_results && ref_results = bat_results
    && int_results = int_want && pool_results = int_want
  in
  let ref_eps = float_of_int total /. ref_time in
  let lin_eps = float_of_int total /. lin_time in
  let bat_eps = float_of_int total /. bat_time in
  let exec_speedup = lin_eps /. ref_eps in
  let exec_speedup_batched = bat_eps /. ref_eps in
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
    time (fun () ->
        List.concat_map
          (fun _ ->
            List.concat_map
              (fun (o, inputs) ->
                List.map (fun input -> Compdiff.Oracle.check_naive o ~input) inputs)
              oracles)
          (List.init oreps Fun.id))
  in
  let linked_time, linked_verdicts =
    time (fun () ->
        List.concat_map
          (fun _ ->
            List.concat_map
              (fun (o, inputs) ->
                List.map (fun input -> Compdiff.Oracle.check o ~input) inputs)
              oracles)
          (List.init oreps Fun.id))
  in
  (* batched oracle: the same checks through [check_batch] (per-class
     batched VM sessions, level-synchronous escalation) *)
  let obatch_time, obatch_verdicts =
    time (fun () ->
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
  let naive_cps = float_of_int nchecks /. naive_time in
  let linked_cps = float_of_int nchecks /. linked_time in
  let obatch_cps = float_of_int nchecks /. obatch_time in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"bench\": \"vm\",\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"metric\": \"%s\",\n"
       (Overhead.json_escape
          "execs/sec = raw VM executions per second of one binary; \
           checks/sec = oracle checks per second"));
  Buffer.add_string buf (Printf.sprintf "  \"execs\": %d,\n" total);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"reference\": { \"seconds\": %.4f, \"execs_per_sec\": %.1f, \
        \"minor_words_per_exec\": %.0f },\n"
       ref_time ref_eps
       (ref_words /. float_of_int (trials * total)));
  Buffer.add_string buf
    (Printf.sprintf
       "  \"linked\": { \"seconds\": %.4f, \"execs_per_sec\": %.1f, \
        \"minor_words_per_exec\": %.0f },\n"
       lin_time lin_eps
       (lin_words /. float_of_int (trials * total)));
  Buffer.add_string buf
    (Printf.sprintf
       "  \"batched\": { \"seconds\": %.4f, \"execs_per_sec\": %.1f, \
        \"minor_words_per_exec\": %.0f },\n"
       bat_time bat_eps
       (bat_words /. float_of_int (trials * total)));
  Buffer.add_string buf
    (Printf.sprintf
       "  \"interleaved\": { \"images\": %d, \"execs\": %d, \"seconds\": %.4f, \
        \"domain_arena_execs_per_sec\": %.1f, \"arena_per_image_execs_per_sec\": %.1f, \
        \"minor_words_per_exec\": %.0f },\n"
       (Array.length ring) int_total int_time int_eps pool_eps
       (int_words /. float_of_int (trials * int_total)));
  Buffer.add_string buf (Printf.sprintf "  \"speedup\": %.2f,\n" exec_speedup);
  Buffer.add_string buf
    (Printf.sprintf "  \"speedup_batched\": %.2f,\n" exec_speedup_batched);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"oracle\": { \"checks\": %d, \"naive_checks_per_sec\": %.1f, \
        \"linked_checks_per_sec\": %.1f, \"batched_checks_per_sec\": %.1f, \
        \"speedup\": %.2f, \"speedup_batched\": %.2f },\n"
       nchecks naive_cps linked_cps obatch_cps
       (linked_cps /. naive_cps)
       (obatch_cps /. naive_cps));
  Buffer.add_string buf
    (Printf.sprintf "  \"verdicts_match\": %b\n" verdicts_match);
  Buffer.add_string buf "}\n";
  let path = "BENCH_vm.json" in
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf
    "VM executor bench (%d execs, gccx-O0 binary):\n\
    \  reference interpreter: %.0f execs/s (%.0f minor words/exec)\n\
    \  linked image + arena:  %.0f execs/s (%.0f minor words/exec)\n\
    \  batched (run_batch):   %.0f execs/s (%.0f minor words/exec)\n\
    \  interleaved images, domain arena: %.0f execs/s (%.0f minor words/exec), \
     arena per image: %.0f execs/s\n\
    \  speedup: %.2fx linked, %.2fx batched   results byte-identical: %b\n\
    \  oracle: %.1f -> %.1f checks/s (%.2fx), batched %.1f (%.2fx), \
     verdicts match: %b\n\
     wrote %s\n\n"
    total ref_eps
    (ref_words /. float_of_int (trials * total))
    lin_eps
    (lin_words /. float_of_int (trials * total))
    bat_eps
    (bat_words /. float_of_int (trials * total))
    int_eps
    (int_words /. float_of_int (trials * int_total))
    pool_eps
    exec_speedup exec_speedup_batched execs_match naive_cps linked_cps
    (linked_cps /. naive_cps)
    obatch_cps
    (obatch_cps /. naive_cps)
    verdicts_match path;
  if not verdicts_match then failwith "vm bench: executor mismatch"
