(* CompDiff-AFL++ (Algorithm 1, complete).

   The fuzzer drives an instrumented build [B_fuzz]; every generated
   input additionally runs on the k differential binaries, whose outputs
   are checksummed and compared. Diverging inputs land in the [diffs]
   triage store ("save s' to disk" / the diffs/ directory of the paper).

   Sanitizers remain compatible: passing [sanitizer] instruments B_fuzz
   exactly like AFL++ would, without touching the differential set. *)

open Cdcompiler

type config = {
  seeds : string list;
  max_execs : int;
  fuel : int;
  rng_seed : int;
  profiles : Policy.profile list;   (* the differential implementations *)
  sanitizer : Sanitizers.San.kind option; (* on B_fuzz only *)
  normalize : Compdiff.Normalize.filter;
  divergence_feedback : bool;
      (* the paper's Section 5 proposal (NEZHA-style): treat an input
         exhibiting a previously unseen divergence signature as
         interesting, feeding it back into the mutation queue *)
  jobs : int;                       (* oracle parallelism; 0 = Pool.default_jobs *)
  reduce_on_save : bool;
      (* the Section 5 reporting step: ddmin every first-of-its-signature
         divergent input as it is saved, so diffs/ holds reduced
         reproducers, not raw havoc blobs *)
  reduce_checks : int;              (* validation budget per reduction *)
  session : Engine.Session.t option;
      (* engine session for B_fuzz compilation, the oracle, and the
         on-save reductions; None = a private uncached one *)
}

let default_config =
  {
    seeds = [ "" ];
    max_execs = 2_000;
    fuel = 100_000;
    rng_seed = 1;
    profiles = Profiles.all;
    sanitizer = None;
    normalize = Compdiff.Normalize.identity;
    divergence_feedback = false;
    jobs = 0;
    reduce_on_save = true;
    reduce_checks = 400;
    session = None;
  }

type campaign = {
  fuzz : Fuzzer.campaign;
  diffs : Compdiff.Triage.t;
  oracle : Compdiff.Oracle.t;
  diff_checks : int;                (* oracle invocations *)
}

let run ?(config = default_config) (tp : Minic.Tast.tprogram) : campaign =
  let fuzz_unit =
    match config.session with
    | Some s -> Engine.Session.compile s Profiles.fuzz_profile tp
    | None -> Pipeline.compile Profiles.fuzz_profile tp
  in
  let jobs =
    if config.jobs > 0 then config.jobs else Cdutil.Pool.default_jobs ()
  in
  let oracle =
    Compdiff.Oracle.create ?session:config.session ~profiles:config.profiles
      ~normalize:config.normalize ~fuel:config.fuel ~jobs tp
  in
  let triage = Compdiff.Triage.create () in
  (* one verdict, in input order: save it, reduce a first-of-signature
     entry (so the cost is bounded by the number of unique divergences,
     not inputs), and tell divergence feedback whether it was new *)
  let judge input = function
    | Compdiff.Oracle.Diverge obs ->
      let freshness = Compdiff.Triage.add triage oracle ~input obs in
      if freshness = `New && config.reduce_on_save then begin
        match
          Compdiff.Reduce.reduce ~max_checks:config.reduce_checks oracle
            ~input obs
        with
        | Some r ->
          Compdiff.Triage.attach_reduced triage ~input
            {
              Compdiff.Triage.red_input = r.Compdiff.Reduce.red_input;
              red_observations = r.Compdiff.Reduce.red_observations;
              red_checks = r.Compdiff.Reduce.red_stats.Compdiff.Reduce.checks;
            }
        | None -> ()
      end;
      if config.divergence_feedback && freshness = `New then
        Fuzzer.Interesting
      else Fuzzer.Boring
    | Compdiff.Oracle.Agree _ -> Fuzzer.Boring
  in
  (* Checked inputs wait in [pending] and go to the oracle as one
     [check_batch], which pays the per-check arena, pool and bookkeeping
     costs once per batch.  On the 23 Table 4 targets (5000 execs each,
     fuel 60k, 2 jobs on a 2-vCPU VM) whole campaigns ran 1.36-1.56x
     faster than with one [check] per input; batches of 32 to 1024 were
     within noise of each other, batches of 16 about 1.15x slower than
     64.

     A full batch is checked beside the fuzz loop: it goes to the pool
     with {!Cdutil.Pool.async}, and the loop fills the next one.  At most
     one batch is in flight.  When the next batch fills, the in-flight
     one is awaited and its verdicts judged in input order (triage,
     reduction on save) before the new one is submitted, so the oracle
     and the session see the checks and reductions in the order a
     sequential campaign makes them.  Without divergence feedback a
     verdict never reaches the fuzzer, so checking late changes nothing
     it does.  With feedback the fuzzer needs the verdict now: every
     batch is the one input, on a pool without workers, so it runs at
     [await], at once. *)
  let batch = 64 in
  let pool =
    if jobs > 1 && not config.divergence_feedback then Cdutil.Pool.global ()
    else Cdutil.Pool.create ~jobs:1 ()
  in
  let pending = Array.make batch "" and npending = ref 0 in
  let in_flight = ref None in
  (* judge the in-flight batch; the last input's interest is the answer:
     under feedback the batch is that one input, and without feedback
     every interest is Boring *)
  let settle () =
    match !in_flight with
    | None -> Fuzzer.Boring
    | Some (inputs, verdicts) ->
      in_flight := None;
      let interest = ref Fuzzer.Boring in
      Array.iteri
        (fun k v -> interest := judge inputs.(k) v)
        (Cdutil.Pool.await verdicts);
      !interest
  in
  let submit () =
    ignore (settle ());
    let inputs = Array.sub pending 0 !npending in
    npending := 0;
    in_flight :=
      Some
        ( inputs,
          Cdutil.Pool.async ~pool (fun () ->
              Compdiff.Oracle.check_batch oracle ~inputs) )
  in
  let checks = ref 0 in
  let on_input input =
    incr checks;
    pending.(!npending) <- input;
    incr npending;
    if config.divergence_feedback then begin
      submit ();
      settle ()
    end
    else begin
      if !npending = batch then submit ();
      Fuzzer.Boring
    end
  in
  let hooks =
    match config.sanitizer with
    | Some k -> Sanitizers.San.hooks k
    | None -> Cdvm.Hooks.none
  in
  let fuzz =
    Fuzzer.run
      ~config:
        {
          Fuzzer.seeds = config.seeds;
          max_execs = config.max_execs;
          fuel = config.fuel;
          rng_seed = config.rng_seed;
          det_bytes = Fuzzer.default_config.Fuzzer.det_bytes;
          hooks;
          on_input = Some on_input;
        }
      fuzz_unit
  in
  if !npending > 0 then submit ();
  ignore (settle ());
  { fuzz; diffs = triage; oracle; diff_checks = !checks }

let found_divergence (c : campaign) = Compdiff.Triage.total_count c.diffs > 0
