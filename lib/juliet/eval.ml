(* Evaluation of every tool on the benchmark suite (Table 3) plus the raw
   material for the subset study (Figure 1). *)

type test_eval = {
  test : Testcase.t;
  category : Cwe.category;
  (* static tools: (detected on bad, flagged good = false positive) *)
  coverity : bool * bool;
  cppcheck : bool * bool;
  infer : bool * bool;
  unstable : bool * bool;
  (* sanitizers: detected on bad / reported on good *)
  asan : bool * bool;
  ubsan : bool * bool;
  msan : bool * bool;
  (* CompDiff: detected on bad / diverged on good *)
  compdiff : bool * bool;
  (* behaviour partition of the 10 implementations on the bad variant's
     first bug-triggering input (all-zero when no divergence was found) *)
  partition : int array;
  (* §5 reporting: reduction of the bug-triggering input, when one was
     found and the reducer validated a (possibly equal) smaller one *)
  reduction : Compdiff.Reduce.stats option;
  (* combined execution counters of this test's bad+good oracles, for
     the suite-level `juliet --stats` summary *)
  oracle_stats : Compdiff.Oracle.stats;
}

let nimpls = List.length Cdcompiler.Profiles.all

module Tools = Compdiff.Tools

(* Every column is a projection of one {!Compdiff.Tools.run} per variant
   ([evaluate]).  [eval_static], [eval_sanitizer] and [eval_compdiff]
   are the same projections for one tool each: the benchmark's traced
   rebuild of [evaluate] (benchmark/w_juliet.ml) calls them to time the
   tools apart, and goes with them once the library records its own
   spans (ROADMAP item 2b). *)

let static_flags tool kinds = Tools.flags ~kinds (Tools.Static tool)

(** One static tool on both variants: (detected, false positive).
    Called by the benchmark's traced rebuild (ROADMAP item 2b). *)
let eval_static (tool : Staticcheck.Static_tools.tool) (t : Testcase.t)
    (category : Cwe.category) : bool * bool =
  let flags p = static_flags tool (Cwe.matching_kinds category) (Tools.static tool p) in
  (flags t.Testcase.bad, flags t.Testcase.good)

(** One sanitizer on both variants' builds: (detected, reported on
    good).  Called by the benchmark's traced rebuild (ROADMAP item
    2b). *)
let eval_sanitizer ?fuel (kind : Sanitizers.San.kind)
    ~(bad_build : Sanitizers.San.build) ~(good_build : Sanitizers.San.build)
    ~(inputs : string list) : bool * bool =
  let flags b = Tools.sanitizer ?fuel kind b ~inputs <> [] in
  (flags bad_build, flags good_build)

(* CompDiff's columns: detection, partition and reduction from the bad
   variant's first divergent input, the false positive from any
   divergence of the good one, which [run_good] evaluates after the
   reduction, so the reducer's candidates and the good variant's oracle
   are never live at once.  [validate] cross-validates both oracles
   against the naive reference and raises on a mismatch. *)
let compdiff_of ~validate ~reduce ~inputs (bad : Tools.t) run_good =
  let oracle = bad.Tools.oracle in
  let detected, partition, reduction =
    match Tools.first_divergence bad ~inputs with
    | Some (input, obs) ->
      let reduction =
        if reduce then
          Option.map
            (fun (r : Compdiff.Reduce.result) -> r.Compdiff.Reduce.red_stats)
            (Compdiff.Reduce.reduce ~max_checks:200 oracle ~input obs)
        else None
      in
      (true, Compdiff.Oracle.partition oracle obs, reduction)
    | None -> (false, Array.make nimpls 0, None)
  in
  let good : Tools.t = run_good () in
  if validate then
    List.iter
      (fun (r : Tools.t) ->
        Option.iter
          (fun input ->
            failwith
              (Printf.sprintf
                 "Oracle cross-validation failed on input %S: deduped/parallel \
                  verdict differs from the naive oracle"
                 input))
          (Compdiff.Oracle.naive_mismatch r.Tools.oracle ~inputs))
      [ bad; good ];
  let ostats =
    Compdiff.Oracle.sum_stats
      [ Compdiff.Oracle.stats oracle; Compdiff.Oracle.stats good.Tools.oracle ]
  in
  (good, ((detected, Tools.diverges good), partition, reduction, ostats))

(** CompDiff alone on both variants: (detected, diverged on good), the
    partition, the reduction and the oracles' counters.  Called by the
    benchmark's traced rebuild (ROADMAP item 2b). *)
let eval_compdiff ?session ?(fuel = 100_000) ?(validate = false)
    ?(reduce = true) ~(bad : Minic.Tast.tprogram)
    ~(good : Minic.Tast.tprogram) ~(inputs : string list) () :
    (bool * bool) * int array * Compdiff.Reduce.stats option
    * Compdiff.Oracle.stats =
  let check tp = Tools.check ?session ~fuel tp ~inputs in
  snd (compdiff_of ~validate ~reduce ~inputs (check bad) (fun () -> check good))

(** Every tool on one test: one {!Compdiff.Tools.run} per variant.  The
    benchmark's juliet workload times it per test; it stays when the
    traced rebuild goes (ROADMAP item 2b). *)
let evaluate ?session ?(fuel = 100_000) ?(validate = false) ?(reduce = true)
    (t : Testcase.t) : test_eval =
  let category = (Cwe.info t.Testcase.cwe).Cwe.category in
  let inputs = t.Testcase.inputs in
  let bad = Tools.run ?session ~fuel (Testcase.frontend_bad t) ~inputs in
  let good, (compdiff, partition, reduction, oracle_stats) =
    compdiff_of ~validate ~reduce ~inputs bad (fun () ->
        Tools.run ?session ~fuel (Testcase.frontend_good t) ~inputs)
  in
  let pair flags = (flags bad.Tools.reports, flags good.Tools.reports) in
  let static tool = pair (static_flags tool (Cwe.matching_kinds category)) in
  let san kind = pair (Tools.flags (Tools.Sanitizer kind)) in
  {
    test = t;
    category;
    coverity = static Staticcheck.Static_tools.Coverity;
    cppcheck = static Staticcheck.Static_tools.Cppcheck;
    infer = static Staticcheck.Static_tools.Infer;
    unstable = static Staticcheck.Static_tools.Unstable;
    asan = san Sanitizers.San.Asan;
    ubsan = san Sanitizers.San.Ubsan;
    msan = san Sanitizers.San.Msan;
    compdiff;
    partition;
    reduction;
    oracle_stats;
  }

(* Evaluating one test touches no shared mutable state of its own, so
   the suite can be spread over the pool; a shared session is safe (its
   caches are mutex-protected) and results keep suite order. *)
let evaluate_suite ?session ?fuel ?validate ?reduce
    ?(jobs = Cdutil.Pool.default_jobs ()) (tests : Testcase.t list) :
    test_eval list =
  let eval t = evaluate ?session ?fuel ?validate ?reduce t in
  if jobs > 1 then Cdutil.Pool.map eval tests else List.map eval tests

(* --- Table 3 aggregation --- *)

type row = {
  label : string;
  categories : Cwe.category list;
  total : int;
  (* per tool: detection rate, false-positive rate *)
  r_coverity : float * float;
  r_cppcheck : float * float;
  r_infer : float * float;
  r_unstable : float * float;
  r_asan : float;
  r_ubsan : float;
  r_msan : float;
  r_san_total : float;       (* any sanitizer *)
  r_compdiff : float;
  unique : int;               (* CompDiff-only detections vs sanitizers *)
  r_reduction : float;
      (* mean input-size reduction of the bug-triggering inputs
         (1 - reduced/raw), over the detections the reducer validated *)
}

let rows_spec : (string * Cwe.category list) list =
  [
    ("121~127,415,416,590 Memory error", [ Cwe.Memory_error ]);
    ("475 UB for input to API", [ Cwe.Ub_api ]);
    ("588 Bad struct. pointer", [ Cwe.Bad_struct_ptr ]);
    ("685 Bad function call", [ Cwe.Bad_call ]);
    ("758 UB", [ Cwe.Ub_general ]);
    ("190,191,680 Integer error", [ Cwe.Int_error ]);
    ("369 Divide by zero", [ Cwe.Div_zero ]);
    ("476 Null pointer deref.", [ Cwe.Null_deref ]);
    ("457,665 Uninitialized memory", [ Cwe.Uninit ]);
    ("469 UB of pointer Sub.", [ Cwe.Ptr_sub ]);
  ]

let rate num den = if den = 0 then 0. else float_of_int num /. float_of_int den

(* false-positive rate as the paper defines it: incorrect reports out of
   all reports (bad-detections + good-flags) *)
let fp_rate ~detections ~good_flags =
  rate good_flags (detections + good_flags)

let aggregate (evals : test_eval list) : row list =
  List.map
    (fun (label, categories) ->
      let sel = List.filter (fun e -> List.mem e.category categories) evals in
      let total = List.length sel in
      let count f = List.length (List.filter f sel) in
      let static_pair get =
        let det = count (fun e -> fst (get e)) in
        let fp = count (fun e -> snd (get e)) in
        (rate det total, fp_rate ~detections:det ~good_flags:fp)
      in
      let san_total =
        count (fun e -> fst e.asan || fst e.ubsan || fst e.msan)
      in
      let compdiff_det = count (fun e -> fst e.compdiff) in
      let r_reduction =
        let rs =
          List.filter_map (fun e -> e.reduction) sel
          |> List.map Compdiff.Reduce.input_ratio
        in
        match rs with
        | [] -> 0.
        | _ -> List.fold_left ( +. ) 0. rs /. float_of_int (List.length rs)
      in
      let unique =
        count (fun e ->
            fst e.compdiff && not (fst e.asan || fst e.ubsan || fst e.msan))
      in
      {
        label;
        categories;
        total;
        r_coverity = static_pair (fun e -> e.coverity);
        r_cppcheck = static_pair (fun e -> e.cppcheck);
        r_infer = static_pair (fun e -> e.infer);
        r_unstable = static_pair (fun e -> e.unstable);
        r_asan = rate (count (fun e -> fst e.asan)) total;
        r_ubsan = rate (count (fun e -> fst e.ubsan)) total;
        r_msan = rate (count (fun e -> fst e.msan)) total;
        r_san_total = rate san_total total;
        r_compdiff = rate compdiff_det total;
        unique;
        r_reduction;
      })
    rows_spec

(* sanitizer / CompDiff false positives across the whole suite: the
   paper's Finding 5 expects all of these to be zero *)
let false_positive_counts (evals : test_eval list) =
  let count f = List.length (List.filter f evals) in
  [
    ("ASan", count (fun e -> snd e.asan));
    ("UBSan", count (fun e -> snd e.ubsan));
    ("MSan", count (fun e -> snd e.msan));
    ("CompDiff", count (fun e -> snd e.compdiff));
  ]

(* partitions of the detected bugs, for Figure 1 *)
let detected_partitions (evals : test_eval list) : int array list =
  List.filter_map
    (fun e -> if fst e.compdiff then Some e.partition else None)
    evals
