(* fuzz: CompDiff-AFL++ campaigns (Algorithm 1) on every Table 4 target
   with the Table 5 configuration: fuel 60k, no reduction on save, a
   fresh 256 MiB session per campaign, [rng_seed] = the workload seed.

   Chosen because it is dominated by execution: the differential check
   of every generated input and the fuzz loop's own executions, with
   compilation a small one-off per campaign.  The observation store
   mostly misses here (every input is new), so the session is
   write-heavy.

   Untraced, campaigns cycle over the targets until the time is up,
   every target at least twice; a target's latency is the median of its
   campaigns.  Traced, each target runs once as the product
   ({!Fuzz.Compdiff_afl.run}) and once rebuilt from public parts with a
   span around every layer call, and the two must agree exactly. *)

open Common

type target = { project : Projects.Project.t; tp : Minic.Tast.tprogram }

(* what a campaign found; equal on every repetition of a target *)
type outcome = {
  execs : int;
  diff_checks : int;
  total : int;    (* divergent inputs saved *)
  unique : int;   (* distinct partition signatures *)
  bugs : string list;  (* seeded bugs attributed, as Campaign.run_project *)
}

(* Long enough that every target leaves the deterministic stage for the
   havoc loop, short enough that every target runs twice in a run. *)
let max_execs opts = if opts.smoke then 300 else 5000
let fuel = 60_000

let targets opts =
  if opts.smoke then List.filteri (fun i _ -> i < 2) Projects.Registry.all
  else Projects.Registry.all

let bugs_of (p : Projects.Project.t) (diffs : Compdiff.Triage.t) =
  List.filter_map
    (fun (e : Compdiff.Triage.diff_entry) ->
      List.find_opt
        (fun (b : Projects.Project.seeded_bug) ->
          b.Projects.Project.trigger e.Compdiff.Triage.input)
        p.Projects.Project.bugs
      |> Option.map (fun (b : Projects.Project.seeded_bug) -> b.Projects.Project.bug_id))
    (Compdiff.Triage.entries diffs)
  |> List.sort_uniq compare

let product ~execs opts (t : target) : Fuzz.Compdiff_afl.campaign =
  let p = t.project in
  let config =
    {
      Fuzz.Compdiff_afl.default_config with
      Fuzz.Compdiff_afl.seeds = p.Projects.Project.seeds;
      max_execs = execs;
      rng_seed = opts.seed;
      fuel;
      profiles = Projects.Project.profiles_for p;
      normalize = p.Projects.Project.normalize;
      reduce_on_save = false;
      session = Some (Engine.Session.create ~cache_mb:256 ());
    }
  in
  Fuzz.Compdiff_afl.run ~config t.tp

(* Front ends of the targets, and one short campaign so that lazy
   initialisation is paid here rather than by the first measured one. *)
let setup opts =
  let ts =
    List.map
      (fun p -> { project = p; tp = Projects.Project.frontend p })
      (targets opts)
  in
  ignore (product ~execs:(if opts.smoke then 100 else 1000) opts (List.hd ts));
  ts

let outcome_of (t : target) (c : Fuzz.Compdiff_afl.campaign) =
  {
    execs = c.Fuzz.Compdiff_afl.fuzz.Fuzz.Fuzzer.execs;
    diff_checks = c.Fuzz.Compdiff_afl.diff_checks;
    total = Compdiff.Triage.total_count c.Fuzz.Compdiff_afl.diffs;
    unique = Compdiff.Triage.unique_count c.Fuzz.Compdiff_afl.diffs;
    bugs = bugs_of t.project c.Fuzz.Compdiff_afl.diffs;
  }

(* Every saved representative must diverge under the sequential
   reference oracle too; one that does not is a false positive. *)
let naive_confirms l (t : target) (c : Fuzz.Compdiff_afl.campaign) =
  List.iter
    (fun (e : Compdiff.Triage.diff_entry) ->
      let v =
        Compdiff.Oracle.check_naive c.Fuzz.Compdiff_afl.oracle
          ~input:e.Compdiff.Triage.input
      in
      check l (Compdiff.Oracle.is_divergence v)
        "fuzz %s: representative %S not confirmed by check_naive"
        t.project.Projects.Project.pname e.Compdiff.Triage.input)
    (Compdiff.Triage.representatives c.Fuzz.Compdiff_afl.diffs)

(* --- traced rebuild --- *)

let replay_every = 16

(* Replay a sample of checked inputs on one image per behaviour class
   and through the checksum, to split a check into execution and
   comparison. *)
let replay oracle session inputs =
  let units = Array.of_list (List.map snd (Compdiff.Oracle.binaries oracle)) in
  let classes = Compdiff.Oracle.classes oracle in
  let nclasses = Compdiff.Oracle.class_count oracle in
  let images = Array.make nclasses None in
  Array.iteri
    (fun i ci ->
      if images.(ci) = None then begin
        let img = Engine.Session.image (Engine.Session.link session units.(i)) in
        images.(ci) <- Some (img, Cdvm.Arena.create img)
      end)
    classes;
  let images = Array.map Option.get images in
  let fuel = Compdiff.Oracle.base_fuel oracle in
  List.iter
    (fun input ->
      let results =
        Array.map
          (fun (img, arena) ->
            Span.with_ "vm.exec" (fun () ->
                let r =
                  Cdvm.Exec.run_linked
                    ~config:{ Cdvm.Exec.default_config with Cdvm.Exec.input; fuel }
                    ~arena img
                in
                Layers.addi "vm.execs" 1;
                Layers.addi "vm.instrs" r.Cdvm.Exec.fuel_used;
                r))
          images
      in
      Span.with_ "core.compare" (fun () ->
          Array.iter
            (fun ci ->
              let r = results.(ci) in
              ignore
                (Compdiff.Oracle.checksum oracle
                   {
                     Compdiff.Oracle.output =
                       Compdiff.Oracle.normalize oracle r.Cdvm.Exec.stdout;
                     status = r.Cdvm.Exec.status;
                     fuel_used = r.Cdvm.Exec.fuel_used;
                   }))
            classes))
    inputs

(* {!Fuzz.Compdiff_afl.run} with reduce_on_save off, step by step. *)
let traced opts (t : target) : outcome =
  let p = t.project in
  Span.with_ ~item:p.Projects.Project.pname "bench.item" (fun () ->
      let session = Engine.Session.create ~cache_mb:256 () in
      let profiles = Projects.Project.profiles_for p in
      let units = List.map (fun prof -> Layers.compile session prof t.tp) profiles in
      List.iter (Layers.link session) units;
      let fuzz_unit =
        Engine.Session.compile session Cdcompiler.Profiles.fuzz_profile t.tp
      in
      let oracle =
        Span.with_ "core.oracle_create" (fun () ->
            Compdiff.Oracle.create ~session ~profiles
              ~normalize:p.Projects.Project.normalize ~fuel
              ~jobs:(Cdutil.Pool.default_jobs ()) t.tp)
      in
      let triage = Compdiff.Triage.create () in
      let checks = ref 0 and sample = ref [] in
      let on_input input =
        incr checks;
        if !checks mod replay_every = 0 then sample := input :: !sample;
        (match Span.with_ "core.check" (fun () -> Compdiff.Oracle.check oracle ~input) with
        | Compdiff.Oracle.Diverge obs ->
            Span.with_ "core.triage" (fun () ->
                ignore (Compdiff.Triage.add triage oracle ~input obs))
        | Compdiff.Oracle.Agree _ -> ());
        Fuzz.Fuzzer.Boring
      in
      let fz =
        Span.with_ "fuzz.loop" (fun () ->
            Fuzz.Fuzzer.run
              ~config:
                {
                  Fuzz.Fuzzer.seeds = p.Projects.Project.seeds;
                  max_execs = max_execs opts;
                  fuel;
                  rng_seed = opts.seed;
                  det_bytes = Fuzz.Fuzzer.default_config.Fuzz.Fuzzer.det_bytes;
                  hooks = Cdvm.Hooks.none;
                  on_input = Some on_input;
                }
              fuzz_unit)
      in
      replay oracle session (List.rev !sample);
      Layers.add_oracle (Compdiff.Oracle.stats oracle);
      Layers.add_session (Engine.Session.stats session);
      Layers.addi "fuzz.queue_entries" (List.length fz.Fuzz.Fuzzer.queue);
      Layers.addi "fuzz.edges" fz.Fuzz.Fuzzer.edges_covered;
      {
        execs = fz.Fuzz.Fuzzer.execs;
        diff_checks = !checks;
        total = Compdiff.Triage.total_count triage;
        unique = Compdiff.Triage.unique_count triage;
        bugs = bugs_of p triage;
      })

let name t = t.project.Projects.Project.pname

let run opts : result =
  let l = ledger () in
  let targets, setup_s = setup_median ~reps:5 (fun () -> setup opts) in
  let targets = Array.of_list targets in
  let n = Array.length targets in
  let first : outcome option array = Array.make n None in
  (* the first outcome of a target is the reference every later run of
     it (repetition or traced rebuild) must reproduce *)
  let record i o =
    match first.(i) with
    | None -> first.(i) <- Some o
    | Some o0 ->
        check l (o = o0) "fuzz %s: campaign outcome changed between runs"
          (name targets.(i))
  in
  let run_product i =
    l.attempted <- l.attempted + 1;
    match timed (fun () -> product ~execs:(max_execs opts) opts targets.(i)) with
    | c, dt ->
        if first.(i) = None then naive_confirms l targets.(i) c;
        let o = outcome_of targets.(i) c in
        record i o;
        Some (o, dt)
    | exception e ->
        fail l "fuzz %s: %s" (name targets.(i)) (Printexc.to_string e);
        None
  in
  let findings () =
    sumi
      (Array.to_list
         (Array.map (function Some o -> List.length o.bugs | None -> 0) first))
  in
  if not opts.trace then begin
    let times = Array.make n [] in
    let t0 = now () in
    let i = ref 0 in
    while !i < 2 * n || now () -. t0 < opts.seconds do
      let k = !i mod n in
      Option.iter (fun (_, dt) -> times.(k) <- dt :: times.(k)) (run_product k);
      incr i
    done;
    (* every target weighs once, at its median campaign time, however
       many times the deadline let it run *)
    let ran = List.filter (fun k -> times.(k) <> []) (List.init n Fun.id) in
    let per_target = List.map (fun k -> median times.(k)) ran in
    let busy = sum per_target in
    let total f = float_of_int (sumi (List.map (fun k -> f (Option.get first.(k))) ran)) in
    let per_target = List.map (fun t -> 1000. *. t) per_target in
    {
      ledger = l;
      metrics =
        [
          ("setup_s", setup_s);
          ("throughput_per_s", total (fun o -> o.execs) /. busy);
          ("checks_per_s", total (fun o -> o.diff_checks) /. busy);
          ("latency_p50_ms", median per_target);
          ("latency_p95_ms", percentile 0.95 per_target);
          ("findings", float_of_int (findings ()));
          ("peak_heap_mb", peak_heap_mb ());
        ];
    }
  end
  else begin
    let untraced = ref 0. and traced_s = ref 0. in
    let pass () =
      for i = 0 to n - 1 do
        (match run_product i with
        | Some (_, dt) -> untraced := !untraced +. dt
        | None -> ());
        l.attempted <- l.attempted + 1;
        Span.enabled := true;
        (match timed (fun () -> traced opts targets.(i)) with
        | o, dt ->
            traced_s := !traced_s +. dt;
            record i o
        | exception e ->
            fail l "fuzz %s traced: %s" (name targets.(i)) (Printexc.to_string e));
        Span.enabled := false
      done
    in
    let npasses = List.length (passes ~seconds:opts.seconds pass) in
    Layers.traced_result opts l ~passes:npasses
      ~overhead:((!traced_s /. !untraced) -. 1.)
  end
