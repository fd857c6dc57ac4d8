(* Benchmark-suite sections: Table 2 (CWE overview), Table 3 (detection
   and false-positive rates), Figure 1 (subset study). *)

open Cdutil

let pct = Tablefmt.pct

let table2 () =
  let rows =
    List.map
      (fun (i : Juliet.Cwe.info) ->
        [
          Printf.sprintf "CWE-%d" i.Juliet.Cwe.id;
          i.Juliet.Cwe.description;
          string_of_int i.Juliet.Cwe.paper_count;
          string_of_int (Juliet.Cwe.scaled_count i);
        ])
      Juliet.Cwe.all
    @ [
        [
          "Total";
          "";
          string_of_int Juliet.Cwe.total_paper;
          string_of_int Juliet.Cwe.total_scaled;
        ];
      ]
  in
  Tablefmt.print ~title:"Table 2: Overview of selected CWEs"
    ~aligns:[ Tablefmt.Left; Tablefmt.Left; Tablefmt.Right; Tablefmt.Right ]
    ~header:[ "CWE-ID"; "Description"; "#Tests (paper)"; "#Tests (here)" ]
    rows

let evaluate_full_suite =
  let cache = ref None in
  fun () ->
    match !cache with
    | Some evals -> evals
    | None ->
      let tests = Juliet.Suite.full () in
      let jobs = Cdutil.Pool.default_jobs () in
      Printf.printf "[juliet] evaluating %d generated tests (jobs=%d)...\n%!"
        (List.length tests) jobs;
      let t0 = Unix.gettimeofday () in
      (* one caching engine session for the whole suite: the sanitizer
         builds reuse the oracles' gccx-O0 units and the ~validate
         re-checks hit the observation store.  ~validate cross-checks,
         on every input of every test, that the cached/deduped/parallel
         oracle verdict is structurally identical to the sequential
         naive oracle's, which bypasses the session (it raises on any
         mismatch). *)
      let session = Engine.Session.create ~cache_mb:256 () in
      let evals =
        Juliet.Eval.evaluate_suite ~session ~jobs ~validate:true tests
      in
      Printf.printf
        "[juliet] done in %.1fs (cached oracle cross-validated against \
         the naive session-free oracle on all tests)\n%!"
        (Unix.gettimeofday () -. t0);
      print_endline
        (Cdutil.Json.to_string
           (Engine.Session.stats_json (Engine.Session.stats session)));
      cache := Some evals;
      evals

let table3 () =
  let evals = evaluate_full_suite () in
  let rows = Juliet.Eval.aggregate evals in
  let render (r : Juliet.Eval.row) =
    let sp (d, fp) = [ pct d; pct fp ] in
    [ r.Juliet.Eval.label; string_of_int r.Juliet.Eval.total ]
    @ sp r.Juliet.Eval.r_coverity @ sp r.Juliet.Eval.r_cppcheck
    @ sp r.Juliet.Eval.r_infer @ sp r.Juliet.Eval.r_unstable
    @ [
        pct r.Juliet.Eval.r_asan;
        pct r.Juliet.Eval.r_ubsan;
        pct r.Juliet.Eval.r_msan;
        pct r.Juliet.Eval.r_san_total;
        pct r.Juliet.Eval.r_compdiff;
        string_of_int r.Juliet.Eval.unique;
        pct r.Juliet.Eval.r_reduction;
      ]
  in
  Tablefmt.print
    ~title:"Table 3: Bug detection rates and false positive rates on the generated suite"
    ~header:
      [
        "CWE-IDs"; "#"; "Covty"; "FP"; "Cppchk"; "FP"; "Infer"; "FP";
        "UnstChk"; "FP"; "ASan"; "UBSan"; "MSan"; "SanTot"; "CompDiff";
        "#Unique"; "Reduce";
      ]
    (List.map render rows);
  let fps = Juliet.Eval.false_positive_counts evals in
  Printf.printf "False positives on good variants (Finding 5 expects 0):\n";
  List.iter (fun (name, n) -> Printf.printf "  %-9s %d\n" name n) fps;
  print_newline ();
  (* static-vs-dynamic cross-validation: how does the IR-level analyzer
     line up with the differential oracle's ground truth? *)
  let count f = List.length (List.filter f evals) in
  let total = List.length evals in
  let u_det = count (fun e -> fst e.Juliet.Eval.unstable) in
  let u_fp = count (fun e -> snd e.Juliet.Eval.unstable) in
  let both = count (fun e -> fst e.Juliet.Eval.unstable && fst e.Juliet.Eval.compdiff) in
  let only_static =
    count (fun e -> fst e.Juliet.Eval.unstable && not (fst e.Juliet.Eval.compdiff))
  in
  let only_dyn =
    count (fun e -> fst e.Juliet.Eval.compdiff && not (fst e.Juliet.Eval.unstable))
  in
  Printf.printf
    "UnstableCheck vs differential oracle (%d tests):\n\
    \  static+dynamic agree on %d bugs; static-only %d; dynamic-only %d\n\
    \  UnstableCheck: %d detections, %d good-variant reports (FP rate %s)\n\n"
    total both only_static only_dyn u_det u_fp
    (Cdutil.Tablefmt.pct
       (Juliet.Eval.fp_rate ~detections:u_det ~good_flags:u_fp))

let figure1 () =
  let evals = evaluate_full_suite () in
  let partitions = Juliet.Eval.detected_partitions evals in
  let n = Juliet.Eval.nimpls in
  let names = List.map (fun p -> p.Cdcompiler.Policy.pname) Cdcompiler.Profiles.all in
  Printf.printf
    "Figure 1: bugs detected by every subset of the %d implementations\n" n;
  Printf.printf "(%d bugs detectable by the full set)\n\n" (List.length partitions);
  let rows = Compdiff.Subset.study ~n partitions in
  let render (r : Compdiff.Subset.study_row) =
    [
      string_of_int r.Compdiff.Subset.size;
      Printf.sprintf "%.0f" r.Compdiff.Subset.box.Stats.minimum;
      Printf.sprintf "%.1f" r.Compdiff.Subset.box.Stats.q1;
      Printf.sprintf "%.1f" r.Compdiff.Subset.box.Stats.median;
      Printf.sprintf "%.1f" r.Compdiff.Subset.box.Stats.q3;
      Printf.sprintf "%.0f" r.Compdiff.Subset.box.Stats.maximum;
      string_of_int r.Compdiff.Subset.box.Stats.count;
      String.concat "+"
        (Compdiff.Subset.mask_to_names ~names (fst r.Compdiff.Subset.best));
      String.concat "+"
        (Compdiff.Subset.mask_to_names ~names (fst r.Compdiff.Subset.worst));
    ]
  in
  Tablefmt.print ~title:"Figure 1 data (box per subset size)"
    ~header:[ "size"; "min"; "q1"; "med"; "q3"; "max"; "#subsets"; "best"; "worst" ]
    (List.map render rows);
  (* the paper's headline pair comparison *)
  let best2 = List.hd rows in
  let full = List.nth rows (List.length rows - 1) in
  Printf.printf "best 2-subset detects %.0f of %.0f bugs (%.0f%%)\n"
    (float_of_int (snd best2.Compdiff.Subset.best))
    full.Compdiff.Subset.box.Stats.maximum
    (100.
    *. float_of_int (snd best2.Compdiff.Subset.best)
    /. full.Compdiff.Subset.box.Stats.maximum);
  Printf.printf "policy-recommended pair: %s\n\n"
    (String.concat "+" (Compdiff.Subset.recommend ~names ()))
