(* Fuzzing campaigns over the synthetic projects and the aggregation
   behind Tables 5 and 6 and Figure 2. *)

type found_bug = {
  bug : Project.seeded_bug;
  found_input : string;               (* a diffs/ entry attributed to it *)
  partition : int array;              (* implementation behaviour classes *)
}

type project_result = {
  project : Project.t;
  campaign : Fuzz.Compdiff_afl.campaign;
  found : found_bug list;
  unattributed : int;                 (* divergent inputs matching no seeded bug *)
  reductions : Compdiff.Reduce.stats list;
      (* one per reduced signature representative (reporting workload) *)
}

(* The paper's reporting step (§5): shrink one representative per
   signature.  Reductions are independent of each other — each owns its
   candidate oracles and the shared campaign oracle is thread-safe — so
   they spread over the pool, one divergence per task; the per-candidate
   executions inside a reduction run on the linked images as usual. *)
let reduce_representatives ?(max_checks = 160) (p : Project.t)
    (campaign : Fuzz.Compdiff_afl.campaign) : Compdiff.Reduce.stats list =
  (* candidate oracles share the campaign oracle's session: repeated
     candidate programs and re-checked inputs hit its caches *)
  let session =
    Compdiff.Oracle.session campaign.Fuzz.Compdiff_afl.oracle
  in
  let reoracle tp =
    Compdiff.Oracle.create ~session
      ~profiles:(Project.profiles_for p)
      ~normalize:p.Project.normalize ~fuel:60_000 tp
  in
  let reduce_one (e : Compdiff.Triage.diff_entry) =
    Compdiff.Reduce.reduce ~max_checks ~program:p.Project.program ~reoracle
      campaign.Fuzz.Compdiff_afl.oracle ~input:e.Compdiff.Triage.input
      e.Compdiff.Triage.observations
    |> Option.map (fun (r : Compdiff.Reduce.result) ->
           (e.Compdiff.Triage.input, r))
  in
  let reps = Compdiff.Triage.representatives campaign.Fuzz.Compdiff_afl.diffs in
  let reduced =
    (if List.length reps > 1 then Cdutil.Pool.map reduce_one reps
     else List.map reduce_one reps)
    |> List.filter_map Fun.id
  in
  List.map
    (fun (input, (r : Compdiff.Reduce.result)) ->
      Compdiff.Triage.attach_reduced campaign.Fuzz.Compdiff_afl.diffs ~input
        {
          Compdiff.Triage.red_input = r.Compdiff.Reduce.red_input;
          red_observations = r.Compdiff.Reduce.red_observations;
          red_checks = r.Compdiff.Reduce.red_stats.Compdiff.Reduce.checks;
        };
      r.Compdiff.Reduce.red_stats)
    reduced

let run_project ?session ?(max_execs = 6_000) ?(rng_seed = 7) ?(reduce = true)
    (p : Project.t) : project_result =
  let tp = Project.frontend p in
  let config =
    {
      Fuzz.Compdiff_afl.default_config with
      Fuzz.Compdiff_afl.seeds = p.Project.seeds;
      max_execs;
      rng_seed;
      fuel = 60_000;
      profiles = Project.profiles_for p;
      normalize = p.Project.normalize;
      (* reduction happens in batch below (with program reduction and
         pool parallelism), not inline on save *)
      reduce_on_save = false;
      session;
    }
  in
  let campaign = Fuzz.Compdiff_afl.run ~config tp in
  let reductions = if reduce then reduce_representatives p campaign else [] in
  (* triage: attribute each divergent input to the seeded bug whose
     trigger it satisfies; remember one representative per bug *)
  let entries = Compdiff.Triage.entries campaign.Fuzz.Compdiff_afl.diffs in
  let found_tbl : (string, found_bug) Hashtbl.t = Hashtbl.create 8 in
  let unattributed = ref 0 in
  List.iter
    (fun (e : Compdiff.Triage.diff_entry) ->
      match
        List.find_opt
          (fun (b : Project.seeded_bug) -> b.Project.trigger e.Compdiff.Triage.input)
          p.Project.bugs
      with
      | Some b ->
        if not (Hashtbl.mem found_tbl b.Project.bug_id) then begin
          let partition =
            Compdiff.Oracle.partition campaign.Fuzz.Compdiff_afl.oracle
              e.Compdiff.Triage.observations
          in
          Hashtbl.replace found_tbl b.Project.bug_id
            { bug = b; found_input = e.Compdiff.Triage.input; partition }
        end
      | None -> incr unattributed)
    entries;
  {
    project = p;
    campaign;
    found = Hashtbl.fold (fun _ f acc -> f :: acc) found_tbl [];
    unattributed = !unattributed;
    reductions;
  }

(* Campaigns are deterministic (seeded RNG, deterministic VM), so
   running the projects through the pool yields the same results in the
   same order as the sequential map. *)
let run_all ?session ?max_execs ?rng_seed ?reduce
    ?(jobs = Cdutil.Pool.default_jobs ()) () : project_result list =
  let run p = run_project ?session ?max_execs ?rng_seed ?reduce p in
  if jobs > 1 then Cdutil.Pool.map run Registry.all
  else List.map run Registry.all

(* the §5 workload summary: every campaign's reductions *)
let summarize_reductions (results : project_result list) =
  Compdiff.Reduce.summarize (List.concat_map (fun r -> r.reductions) results)

(* --- Table 5 aggregation --- *)

type t5_row = {
  category : Project.bug_category;
  seeded : int;
  found : int;          (* = "Reported" in the paper's reading *)
  confirmed : int;
  fixed : int;
}

let categories =
  [
    Project.EvalOrder; Project.UninitMem; Project.IntError; Project.MemError;
    Project.PointerCmp; Project.Line; Project.Misc;
  ]

let table5 (results : project_result list) : t5_row list =
  let found_bugs = List.concat_map (fun (r : project_result) -> r.found) results in
  List.map
    (fun category ->
      let seeded =
        List.length
          (List.filter
             (fun (_, (b : Project.seeded_bug)) -> b.Project.category = category)
             Registry.all_bugs)
      in
      let of_cat =
        List.filter (fun f -> f.bug.Project.category = category) found_bugs
      in
      {
        category;
        seeded;
        found = List.length of_cat;
        confirmed =
          List.length (List.filter (fun f -> f.bug.Project.confirmed) of_cat);
        fixed = List.length (List.filter (fun f -> f.bug.Project.fixed) of_cat);
      })
    categories

(* --- Table 6: which found bugs sanitizers also cover --- *)

type t6_row = {
  t6_category : Project.bug_category;
  t6_found : int;
  by_asan : int;
  by_ubsan : int;
  by_msan : int;
  by_any : int;
}

(* check a sanitizer against a found bug: run the sanitizer-instrumented
   build on the bug's witness and found inputs *)
let sanitizer_covers (b : Sanitizers.San.build) (kind : Sanitizers.San.kind)
    (f : found_bug) : bool =
  List.exists Option.is_some
    (Sanitizers.San.reports ~fuel:60_000 kind b
       ~inputs:[ f.bug.Project.witness; f.found_input ])

let table6 ?session (results : project_result list) : t6_row list * int =
  (* one instrumented build per project, shared by every (category, kind,
     bug) probe below instead of recompiling each time *)
  let builds : (string, Sanitizers.San.build) Hashtbl.t = Hashtbl.create 8 in
  let build_for (p : Project.t) : Sanitizers.San.build =
    match Hashtbl.find_opt builds p.Project.pname with
    | Some b -> b
    | None ->
      let b = Sanitizers.San.build ?session (Project.frontend p) in
      Hashtbl.add builds p.Project.pname b;
      b
  in
  let rows =
    List.filter_map
      (fun category ->
        let per_project =
          List.concat_map
            (fun (r : project_result) ->
              List.filter_map
                (fun f ->
                  if f.bug.Project.category = category then Some (r.project, f)
                  else None)
                r.found)
            results
        in
        if per_project = [] then None
        else begin
          let count kind =
            List.length
              (List.filter
                 (fun (p, f) -> sanitizer_covers (build_for p) kind f)
                 per_project)
          in
          let asan = count Sanitizers.San.Asan in
          let ubsan = count Sanitizers.San.Ubsan in
          let msan = count Sanitizers.San.Msan in
          let any =
            List.length
              (List.filter
                 (fun (p, f) ->
                   List.exists
                     (fun k -> sanitizer_covers (build_for p) k f)
                     Sanitizers.San.all)
                 per_project)
          in
          Some
            {
              t6_category = category;
              t6_found = List.length per_project;
              by_asan = asan;
              by_ubsan = ubsan;
              by_msan = msan;
              by_any = any;
            }
        end)
      categories
  in
  let total_any = List.fold_left (fun acc r -> acc + r.by_any) 0 rows in
  (rows, total_any)

(* --- Figure 2: subset study over the found real-world bugs --- *)

let partitions (results : project_result list) : int array list =
  List.concat_map
    (fun (r : project_result) ->
      List.map
        (fun f ->
          (* restrict to the standard ten implementations: MuJS runs with
             the extended set, whose eleventh column is dropped *)
          let n = List.length Cdcompiler.Profiles.all in
          if Array.length f.partition > n then Array.sub f.partition 0 n
          else f.partition)
        r.found)
    results
