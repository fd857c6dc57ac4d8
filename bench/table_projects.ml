(* Real-world-project sections: Table 4 (targets), Table 5 (bugs found by
   CompDiff-AFL++ by root cause), Table 6 (sanitizer overlap), Figure 2
   (subset study over the found bugs). *)

open Cdutil

let campaign_results =
  let cache = ref None in
  fun () ->
    match !cache with
    | Some r -> r
    | None ->
      let jobs = Pool.default_jobs () in
      Printf.printf "[projects] fuzzing %d targets (jobs=%d)...\n%!"
        (List.length Projects.Registry.all) jobs;
      let t0 = Unix.gettimeofday () in
      let r = Projects.Campaign.run_all ~max_execs:6_000 ~jobs () in
      Printf.printf "[projects] done in %.0fs\n%!" (Unix.gettimeofday () -. t0);
      cache := Some r;
      r

let table4 () =
  let rows =
    List.map
      (fun (p : Projects.Project.t) ->
        [
          p.Projects.Project.pname;
          p.Projects.Project.input_type;
          p.Projects.Project.version;
          p.Projects.Project.paper_kloc;
          string_of_int (Projects.Project.loc p);
          (if p.Projects.Project.nondeterministic then "yes" else "no");
        ])
      Projects.Registry.all
  in
  Tablefmt.print ~title:"Table 4: Details of selected target projects"
    ~header:
      [ "Target"; "Input type"; "Version"; "Size (paper)"; "LoC (here)"; "nondet." ]
    rows

let table5 () =
  let results = campaign_results () in
  let rows = Projects.Campaign.table5 results in
  let cat r = Projects.Project.category_to_string r.Projects.Campaign.category in
  let line f = List.map (fun r -> string_of_int (f r)) rows in
  let total f = List.fold_left (fun acc r -> acc + f r) 0 rows in
  let header = "" :: List.map cat rows @ [ "Total" ] in
  let body =
    [
      "Seeded"
      :: (line (fun r -> r.Projects.Campaign.seeded)
         @ [ string_of_int (total (fun r -> r.Projects.Campaign.seeded)) ]);
      "Reported (found)"
      :: (line (fun r -> r.Projects.Campaign.found)
         @ [ string_of_int (total (fun r -> r.Projects.Campaign.found)) ]);
      "Confirmed"
      :: (line (fun r -> r.Projects.Campaign.confirmed)
         @ [ string_of_int (total (fun r -> r.Projects.Campaign.confirmed)) ]);
      "Fixed"
      :: (line (fun r -> r.Projects.Campaign.fixed)
         @ [ string_of_int (total (fun r -> r.Projects.Campaign.fixed)) ]);
    ]
  in
  Tablefmt.print
    ~title:"Table 5: Bugs detected by CompDiff-AFL++ on the 23 targets" ~header body;
  let unattributed =
    List.fold_left
      (fun acc (r : Projects.Campaign.project_result) ->
        acc + r.Projects.Campaign.unattributed)
      0 results
  in
  Printf.printf "divergent inputs not matching any seeded bug: %d (expect 0)\n"
    unattributed;
  (* §5 reporting workload: one oracle-validated reduction per signature
     representative, summarized across all campaigns *)
  let s = Projects.Campaign.summarize_reductions results in
  if s.Compdiff.Reduce.sm_divergences > 0 then
    Printf.printf
      "reduced reproducers: %d divergences, %d -> %d bytes, median input \
       reduction %.0f%% (%d oracle checks)\n"
      s.Compdiff.Reduce.sm_divergences s.sm_raw_bytes
      s.sm_reduced_bytes
      (100. *. s.sm_median_ratio)
      s.sm_checks;
  print_newline ()

let table6 () =
  let results = campaign_results () in
  let rows, total_any = Projects.Campaign.table6 results in
  let body =
    List.map
      (fun (r : Projects.Campaign.t6_row) ->
        [
          Projects.Project.category_to_string r.Projects.Campaign.t6_category;
          string_of_int r.Projects.Campaign.t6_found;
          string_of_int r.Projects.Campaign.by_asan;
          string_of_int r.Projects.Campaign.by_ubsan;
          string_of_int r.Projects.Campaign.by_msan;
          string_of_int r.Projects.Campaign.by_any;
        ])
      rows
  in
  let found_total =
    List.fold_left (fun acc r -> acc + r.Projects.Campaign.t6_found) 0 rows
  in
  Tablefmt.print
    ~title:"Table 6: Of the bugs detected by CompDiff, those also covered by sanitizers"
    ~header:[ "Category"; "CompDiff"; "ASan"; "UBSan"; "MSan"; "Any sanitizer" ]
    (body
    @ [
        [
          "Total";
          string_of_int found_total;
          "";
          "";
          "";
          string_of_int total_any;
        ];
      ]);
  Printf.printf "CompDiff-unique bugs: %d of %d\n\n" (found_total - total_any)
    found_total

let figure2 () =
  let results = campaign_results () in
  let partitions = Projects.Campaign.partitions results in
  let n = List.length Cdcompiler.Profiles.all in
  let names = List.map (fun p -> p.Cdcompiler.Policy.pname) Cdcompiler.Profiles.all in
  Printf.printf
    "Figure 2: real-world bugs detected by every subset of the %d implementations\n"
    n;
  Printf.printf "(%d found bugs)\n\n" (List.length partitions);
  let rows = Compdiff.Subset.study ~n partitions in
  let render (r : Compdiff.Subset.study_row) =
    [
      string_of_int r.Compdiff.Subset.size;
      Printf.sprintf "%.0f" r.Compdiff.Subset.box.Stats.minimum;
      Printf.sprintf "%.1f" r.Compdiff.Subset.box.Stats.median;
      Printf.sprintf "%.0f" r.Compdiff.Subset.box.Stats.maximum;
      String.concat "+"
        (Compdiff.Subset.mask_to_names ~names (fst r.Compdiff.Subset.best));
      String.concat "+"
        (Compdiff.Subset.mask_to_names ~names (fst r.Compdiff.Subset.worst));
    ]
  in
  Tablefmt.print ~title:"Figure 2 data (box per subset size)"
    ~header:[ "size"; "min"; "med"; "max"; "best"; "worst" ]
    (List.map render rows)
