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
  diff_every : int;                 (* run the oracle on every nth input; 1 = paper *)
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
    diff_every = 1;
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
     64.  Without divergence feedback a verdict never reaches the
     fuzzer, so checking late changes nothing it does; with feedback the
     fuzzer needs the verdict now, and every batch is the one input. *)
  let batch = 64 in
  let pending = Array.make batch "" and npending = ref 0 in
  (* the last input's interest is the answer: under feedback the batch
     is that one input, and without feedback every interest is Boring *)
  let flush () =
    let inputs = Array.sub pending 0 !npending in
    npending := 0;
    let interest = ref Fuzzer.Boring in
    Array.iteri
      (fun k v -> interest := judge inputs.(k) v)
      (Compdiff.Oracle.check_batch oracle ~inputs);
    !interest
  in
  let counter = ref 0 in
  let checks = ref 0 in
  let on_input input =
    incr counter;
    if !counter mod config.diff_every = 0 then begin
      incr checks;
      pending.(!npending) <- input;
      incr npending;
      if config.divergence_feedback || !npending = batch then flush ()
      else Fuzzer.Boring
    end
    else Fuzzer.Boring
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
  if !npending > 0 then ignore (flush ());
  { fuzz; diffs = triage; oracle; diff_checks = !checks }

let found_divergence (c : campaign) = Compdiff.Triage.total_count c.diffs > 0
