(* report: the §5 reporting step on divergences found by fuzzing.

   Set-up runs a 2000-exec CompDiff-AFL++ campaign on every other Table 4
   target and keeps the first divergence each one saves.  Each divergence
   is then reduced as {!Projects.Campaign.reduce_representatives} does
   it ([max_checks] 160, program reduction, a re-oracle over the
   project's profiles) on a fresh session, attached to a triage store
   and localized to its first diverging instruction
   ({!Compdiff.Triage.entry_deep}).  Divergences are reported one after
   another, each using the pool inside its checks and compiles, with an
   untimed full collection between them: reduction leaves hundreds of
   megabytes of garbage per divergence.

   Chosen because it is dominated by compilation: every accepted program
   candidate is recompiled with every profile and linked.  It is the
   only workload that reaches the instruction-level recorder. *)

open Common

type divergence = {
  project : Projects.Project.t;
  tp : Minic.Tast.tprogram;
  input : string;
  obs : (string * Compdiff.Oracle.observation) list;
}

(* what one reduction produced; equal on every repetition *)
type summary = {
  red_input : string;
  red_program : Minic.Ast.program option;
  stats : Compdiff.Reduce.stats;
  signature : int;
  localized : bool;  (* the first diverging instruction was pinned *)
  deep : string;     (* rendered diff of the localization *)
}

let fuel = 60_000
let max_checks opts = if opts.smoke then 16 else 160
let discovery_execs opts = if opts.smoke then 300 else 2000

(* Every other Table 4 target, so the whole registry is spanned.  The
   set is fixed rather than drawn by the seed: one reduction costs
   between 1 and 4 s depending on the divergence, and a dozen seed-drawn
   divergences moved throughput by a third from seed to seed. *)
let targets opts =
  List.filteri (fun i _ -> i mod 2 = 0) Projects.Registry.all
  |> List.filteri (fun i _ -> (not opts.smoke) || i < 2)

(* The first divergence a seeded campaign saves on each target. *)
let discover opts : divergence list =
  List.filter_map
    (fun (p : Projects.Project.t) ->
      let tp = Projects.Project.frontend p in
      let config =
        {
          Fuzz.Compdiff_afl.default_config with
          Fuzz.Compdiff_afl.seeds = p.Projects.Project.seeds;
          max_execs = discovery_execs opts;
          rng_seed = opts.seed;
          fuel;
          profiles = Projects.Project.profiles_for p;
          normalize = p.Projects.Project.normalize;
          reduce_on_save = false;
          session = Some (Engine.Session.create ~cache_mb:64 ());
        }
      in
      let c = Fuzz.Compdiff_afl.run ~config tp in
      match Compdiff.Triage.representatives c.Fuzz.Compdiff_afl.diffs with
      | e :: _ ->
          Some
            {
              project = p;
              tp;
              input = e.Compdiff.Triage.input;
              obs = e.Compdiff.Triage.observations;
            }
      | [] -> None)
    (targets opts)

let create_oracle session (d : divergence) tp =
  Compdiff.Oracle.create ~session
    ~profiles:(Projects.Project.profiles_for d.project)
    ~normalize:d.project.Projects.Project.normalize ~fuel tp

(* Reduce, attach, localize.  [reoracle] is the only difference between
   the product run and the traced rebuild. *)
let report opts ~reoracle ~oracle (d : divergence) : summary option =
  match
    Span.with_ "core.reduce" (fun () ->
        Compdiff.Reduce.reduce ~max_checks:(max_checks opts) ~program:d.project.Projects.Project.program
          ~reoracle oracle ~input:d.input d.obs)
  with
  | None -> None
  | Some r ->
      let entry =
        Span.with_ "core.triage" (fun () ->
            let triage = Compdiff.Triage.create () in
            ignore (Compdiff.Triage.add triage oracle ~input:d.input d.obs);
            Compdiff.Triage.attach_reduced triage ~input:d.input
              {
                Compdiff.Triage.red_input = r.Compdiff.Reduce.red_input;
                red_observations = r.Compdiff.Reduce.red_observations;
                red_checks = r.Compdiff.Reduce.red_stats.Compdiff.Reduce.checks;
              };
            List.hd (Compdiff.Triage.entries triage))
      in
      let deep =
        Span.with_ "trace.deep" (fun () -> Compdiff.Triage.entry_deep oracle entry)
      in
      let localized, rendered =
        match deep with
        | Some dp ->
            ( dp.Compdiff.Localize.deep_a.Compdiff.Localize.ds_at <> None
              || dp.Compdiff.Localize.deep_b.Compdiff.Localize.ds_at <> None,
              dp.Compdiff.Localize.diff )
        | None -> (false, "")
      in
      Some
        {
          red_input = r.Compdiff.Reduce.red_input;
          red_program = r.Compdiff.Reduce.red_program;
          stats = r.Compdiff.Reduce.red_stats;
          signature = r.Compdiff.Reduce.red_class.Compdiff.Reduce.cls_signature;
          localized;
          deep = rendered;
        }

let product opts (d : divergence) =
  let session = Engine.Session.create ~cache_mb:64 () in
  let oracle = create_oracle session d d.tp in
  report opts ~reoracle:(create_oracle session d) ~oracle d

(* The re-oracle split into its layers: per-profile compiles, links,
   then the oracle over the now cached units. *)
let traced opts (d : divergence) =
  let session = Engine.Session.create ~cache_mb:64 () in
  let reoracle tp =
    let units =
      List.map
        (fun p -> Layers.compile session p tp)
        (Projects.Project.profiles_for d.project)
    in
    List.iter (Layers.link session) units;
    Span.with_ "core.oracle_create" (fun () -> create_oracle session d tp)
  in
  let s =
    Span.with_ ~item:(d.project.Projects.Project.pname ^ ":" ^ String.escaped d.input)
      "bench.item" (fun () -> report opts ~reoracle ~oracle:(reoracle d.tp) d)
  in
  Layers.add_session (Engine.Session.stats session);
  Option.iter
    (fun s ->
      Layers.addi "core.reduce_checks" s.stats.Compdiff.Reduce.checks;
      Layers.addi "core.reduced_bytes" s.stats.Compdiff.Reduce.input_after;
      Layers.addi "core.reduced_stmts" s.stats.Compdiff.Reduce.stmts_after)
    s;
  s

(* The reduced pair must still diverge, with the same partition
   signature, on a caching-disabled session under the sequential
   reference oracle. *)
let revalidate l (d : divergence) (s : summary) =
  let tp =
    match s.red_program with Some p -> Minic.frontend_exn p | None -> d.tp
  in
  let o = create_oracle (Engine.Session.create ~cache_mb:0 ()) d tp in
  match Compdiff.Oracle.check_naive o ~input:s.red_input with
  | Compdiff.Oracle.Diverge obs ->
      check l
        (Compdiff.Triage.signature_of_partition (Compdiff.Oracle.partition o obs)
        = s.signature)
        "report %s: reduced pair diverges with another signature"
        d.project.Projects.Project.pname
  | Compdiff.Oracle.Agree _ ->
      check l false "report %s: reduced pair no longer diverges"
        d.project.Projects.Project.pname

let run opts : result =
  let l = ledger () in
  let divs, setup_s =
    setup_median ~reps:3 (fun () ->
        let divs = discover opts in
        (* a short reduction pays lazy initialisation before timing *)
        ignore (product { opts with smoke = true } (List.hd divs));
        divs)
  in
  let divs = Array.of_list divs in
  let n = Array.length divs in
  let first : summary option array = Array.make n None in
  let record i = function
    | None -> fail l "report %s: reduction returned None" divs.(i).project.Projects.Project.pname
    | Some s -> (
        match first.(i) with
        | None -> first.(i) <- Some s
        | Some s0 ->
            check l (s = s0) "report %s: reduction changed between runs"
              divs.(i).project.Projects.Project.pname)
  in
  let attempt i f =
    l.attempted <- l.attempted + 1;
    match timed f with
    | s, dt ->
        record i s;
        Some dt
    | exception e ->
        fail l "report %s: %s" divs.(i).project.Projects.Project.pname
          (Printexc.to_string e);
        None
  in
  let finish_checks () =
    Array.iteri (fun i s -> Option.iter (revalidate l divs.(i)) s) first
  in
  let summaries () = List.filter_map Fun.id (Array.to_list first) in
  if not opts.trace then begin
    let item_times = Array.make n [] in
    let pass () =
      for i = 0 to n - 1 do
        Option.iter
          (fun dt -> item_times.(i) <- dt :: item_times.(i))
          (attempt i (fun () -> product opts divs.(i)));
        Gc.compact ()
      done
    in
    let walls = passes ~seconds:opts.seconds pass in
    let busy = sum (List.concat (Array.to_list item_times)) in
    finish_checks ();
    let per_div =
      List.filter_map
        (fun ts -> if ts = [] then None else Some (1000. *. median ts))
        (Array.to_list item_times)
    in
    let items = sumi (Array.to_list (Array.map List.length item_times)) in
    let checks =
      float_of_int (List.length walls)
      *. float_of_int
           (sumi (List.map (fun s -> s.stats.Compdiff.Reduce.checks) (summaries ())))
    in
    {
      ledger = l;
      metrics =
        [
          ("setup_s", setup_s);
          ("throughput_per_s", float_of_int items /. busy);
          ("checks_per_s", checks /. busy);
          ("latency_p50_ms", median per_div);
          ("latency_p95_ms", percentile 0.95 per_div);
          ( "findings",
            float_of_int (List.length (List.filter (fun s -> s.localized) (summaries ()))) );
          ("peak_heap_mb", peak_heap_mb ());
        ];
    }
  end
  else begin
    let untraced = ref 0. and traced_s = ref 0. in
    let pass () =
      for i = 0 to n - 1 do
        Option.iter
          (fun dt -> untraced := !untraced +. dt)
          (attempt i (fun () -> product opts divs.(i)));
        Span.enabled := true;
        Option.iter
          (fun dt -> traced_s := !traced_s +. dt)
          (attempt i (fun () -> traced opts divs.(i)));
        Span.enabled := false
      done;
      Gc.compact ()
    in
    let npasses = List.length (passes ~seconds:opts.seconds pass) in
    finish_checks ();
    Layers.traced_result opts l ~passes:npasses
      ~overhead:((!traced_s /. !untraced) -. 1.)
  end
