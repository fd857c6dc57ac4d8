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

let eval_static (tool : Staticcheck.Static_tools.tool) (t : Testcase.t)
    (category : Cwe.category) : bool * bool =
  let kinds = Cwe.matching_kinds category in
  ( Staticcheck.Static_tools.flags_kinds tool t.Testcase.bad kinds,
    Staticcheck.Static_tools.flags_kinds tool t.Testcase.good kinds )

(* one sanitizer build per variant serves all three kinds: the hook set
   is per-run, so ASan/UBSan/MSan share the compiled+linked binary *)
let eval_sanitizer ?fuel (kind : Sanitizers.San.kind)
    ~(bad_build : Sanitizers.San.build) ~(good_build : Sanitizers.San.build)
    ~(inputs : string list) : bool * bool =
  ( Sanitizers.San.detects_built ?fuel kind bad_build ~inputs,
    Sanitizers.San.detects_built ?fuel kind good_build ~inputs )

(* Cross-validation (acceptance gate of the parallel oracle): on every
   input, the deduped/pooled verdict must be structurally identical to
   the sequential naive one. *)
let validate_oracle (oracle : Compdiff.Oracle.t) ~(inputs : string list) : unit =
  List.iter
    (fun input ->
      let fast = Compdiff.Oracle.check oracle ~input in
      let naive = Compdiff.Oracle.check_naive oracle ~input in
      if fast <> naive then
        failwith
          (Printf.sprintf
             "Oracle cross-validation failed on input %S: deduped/parallel \
              verdict differs from the naive oracle"
             input))
    inputs

let eval_compdiff ?session ?(fuel = 100_000) ?(validate = false)
    ?(reduce = true) ~(bad : Minic.Tast.tprogram)
    ~(good : Minic.Tast.tprogram) ~(inputs : string list) () :
    (bool * bool) * int array * Compdiff.Reduce.stats option
    * Compdiff.Oracle.stats =
  let oracle_bad = Compdiff.Oracle.create ?session ~fuel bad in
  let detected, partition, reduction =
    match Compdiff.Oracle.find_bug oracle_bad ~inputs with
    | Some (input, obs) ->
      let reduction =
        if reduce then
          Option.map
            (fun (r : Compdiff.Reduce.result) -> r.Compdiff.Reduce.red_stats)
            (Compdiff.Reduce.reduce ~max_checks:200 oracle_bad ~input obs)
        else None
      in
      (true, Compdiff.Oracle.partition oracle_bad obs, reduction)
    | None -> (false, Array.make nimpls 0, None)
  in
  let oracle_good = Compdiff.Oracle.create ?session ~fuel good in
  let fp = Compdiff.Oracle.detects oracle_good ~inputs in
  if validate then begin
    validate_oracle oracle_bad ~inputs;
    validate_oracle oracle_good ~inputs
  end;
  let ostats =
    Compdiff.Oracle.sum_stats
      [ Compdiff.Oracle.stats oracle_bad; Compdiff.Oracle.stats oracle_good ]
  in
  ((detected, fp), partition, reduction, ostats)

let evaluate ?session ?(fuel = 100_000) ?validate ?reduce (t : Testcase.t) :
    test_eval =
  let category = (Cwe.info t.Testcase.cwe).Cwe.category in
  let bad = Testcase.frontend_bad t in
  let good = Testcase.frontend_good t in
  let inputs = t.Testcase.inputs in
  let compdiff, partition, reduction, oracle_stats =
    eval_compdiff ?session ~fuel ?validate ?reduce ~bad ~good ~inputs ()
  in
  (* the sanitizer builds reuse the session's unit/image caches (the
     bad/good programs were just compiled for the oracles under the
     same gccx-O0 profile) *)
  let bad_build = Sanitizers.San.build ?session bad in
  let good_build = Sanitizers.San.build ?session good in
  {
    test = t;
    category;
    coverity = eval_static Staticcheck.Static_tools.Coverity t category;
    cppcheck = eval_static Staticcheck.Static_tools.Cppcheck t category;
    infer = eval_static Staticcheck.Static_tools.Infer t category;
    unstable = eval_static Staticcheck.Static_tools.Unstable t category;
    asan = eval_sanitizer ~fuel Sanitizers.San.Asan ~bad_build ~good_build ~inputs;
    ubsan = eval_sanitizer ~fuel Sanitizers.San.Ubsan ~bad_build ~good_build ~inputs;
    msan = eval_sanitizer ~fuel Sanitizers.San.Msan ~bad_build ~good_build ~inputs;
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
