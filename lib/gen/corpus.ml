(* Labeled-corpus driver: the honest version of Table 3.

   Sweeps N generated clean/injected pairs through the oracle, the three
   sanitizer models and the four static tools (one {!Compdiff.Tools.run}
   per twin), and scores every tool against the injector's ground truth. Because the clean twin is UB-free
   by construction and the injected twin contains exactly one labeled
   defect, true/false positives and false negatives are *measured*, not
   assumed:

   - TP: the tool flags the injected twin (for static tools, with a
     finding kind matching the defect class);
   - FN: it stays silent on the injected twin;
   - FP: it flags the clean twin.

   An oracle false positive on a clean twin would disprove the
   generator's soundness argument (DESIGN.md S14), so the driver reports
   clean-twin divergences separately and treats any nonzero count as a
   failure. *)

module Rng = Cdutil.Rng
module Oracle = Compdiff.Oracle
module Tools = Compdiff.Tools

type pair = {
  seed : int;
  cls : Inject.ub_class;
  line : int; (* ground-truth defect line in [inj_src] *)
  clean_src : string;
  inj_src : string;
  clean_tp : Minic.Tast.tprogram;
  inj_tp : Minic.Tast.tprogram;
}

(* classes cycle with the seed, so any contiguous seed range is
   balanced across the five Table 3 classes *)
let class_for_seed seed =
  List.nth Inject.all_classes (abs seed mod List.length Inject.all_classes)

(* Generation goes through concrete syntax: the clean program is
   pretty-printed and re-elaborated, so a corpus run also exercises the
   printer/parser round-trip end to end (the generator emits source). *)
let make ?cls ~seed () : (pair, string) result =
  let r = Effgen.generate ~seed in
  let cls = match cls with Some c -> c | None -> class_for_seed seed in
  let clean_src = Minic.Pretty.program_to_string r.Effgen.prog in
  match Minic.frontend_of_source clean_src with
  | Error m -> Error (Printf.sprintf "seed %d clean twin: %s" seed m)
  | Ok clean_tp -> (
    let inj = Inject.inject ~seed r cls in
    let inj_src = Minic.Pretty.program_to_string inj.Inject.inj_prog in
    match Minic.frontend_of_source inj_src with
    | Error m ->
      Error
        (Printf.sprintf "seed %d injected twin (%s): %s" seed
           (Inject.class_name cls) m)
    | Ok inj_tp ->
      Ok
        {
          seed;
          cls;
          line = Inject.defect_line ~src:inj_src inj;
          clean_src;
          inj_src;
          clean_tp;
          inj_tp;
        })

(* structured inputs swept per pair (and used to seed the fuzzer): the
   empty input, a fixed byte, and a seed-derived random payload *)
let inputs_for (p : pair) : string list =
  let rng = Rng.create (Rng.mix p.seed 0x5eed) in
  [ ""; "A"; Bytes.to_string (Rng.bytes rng 8) ]

(* ---------- per-pair evaluation ---------- *)

type pair_eval = {
  pair : pair;
  clean_diverged : bool; (* generator-soundness violation if true *)
  oracle_hit : bool;
  clean_reports : Tools.report list;
  inj_reports : Tools.report list;
}

let evaluate_pair ?session ?(fuel = 100_000) (p : pair) : pair_eval =
  let inputs = inputs_for p in
  let clean = Tools.run ?session ~fuel p.clean_tp ~inputs in
  let inj = Tools.run ?session ~fuel p.inj_tp ~inputs in
  {
    pair = p;
    clean_diverged = Tools.diverges clean;
    oracle_hit = Tools.diverges inj;
    clean_reports = clean.Tools.reports;
    inj_reports = inj.Tools.reports;
  }

let evaluate ?session ?(jobs = 1) ?fuel (pairs : pair list) : pair_eval list =
  let eval p = evaluate_pair ?session ?fuel p in
  if jobs > 1 then Cdutil.Pool.map eval pairs else List.map eval pairs

(* cross-validation: on every swept input, the deduped/pooled oracle
   verdict must be structurally identical to the sequential naive one,
   on both twins (the bench gate's naive-vs-session equality) *)
let naive_agrees ?session ?(fuel = 100_000) (p : pair) : bool =
  let inputs = inputs_for p in
  List.for_all
    (fun tp -> Oracle.naive_mismatch (Oracle.create ?session ~fuel tp) ~inputs = None)
    [ p.clean_tp; p.inj_tp ]

(* generated programs as structured fuzzer seeds: a CompDiff-AFL++
   campaign on the injected twin, seeded with the pair's inputs *)
let fuzz_divergence ?(max_execs = 400) (p : pair) : bool =
  let c =
    Fuzz.Compdiff_afl.run
      ~config:
        {
          Fuzz.Compdiff_afl.default_config with
          Fuzz.Compdiff_afl.max_execs;
          seeds = inputs_for p;
        }
      p.inj_tp
  in
  Fuzz.Compdiff_afl.found_divergence c

(* ---------- aggregation ---------- *)

type counts = { mutable tp : int; mutable fp : int; mutable fn : int }

type report = {
  pairs : int;
  gen_failures : int;
  clean_divergences : int;
  rows : (string * counts) list; (* tool order: oracle, sanitizers, statics *)
  per_class : (Inject.ub_class * counts) list; (* oracle, by defect class *)
}

let tally (hit, fp) (c : counts) =
  if hit then c.tp <- c.tp + 1 else c.fn <- c.fn + 1;
  if fp then c.fp <- c.fp + 1

(* the report's tool rows after CompDiff's: sanitizers, then static tools *)
let tools =
  List.map (fun k -> Tools.Sanitizer k) Sanitizers.San.all
  @ List.map (fun t -> Tools.Static t) Staticcheck.Static_tools.all

(* A sanitizer counts on any report; a static tool on a finding of the
   injected class. *)
let flagged cls tool reports =
  match tool with
  | Tools.Sanitizer _ -> Tools.flags tool reports
  | Tools.Static _ -> Tools.flags ~kinds:(Inject.finding_kinds cls) tool reports

let report ?(gen_failures = 0) (evals : pair_eval list) : report =
  let fresh () = { tp = 0; fp = 0; fn = 0 } in
  let oracle = fresh () in
  let tool_rows = List.map (fun t -> (t, fresh ())) tools in
  let per_class = List.map (fun c -> (c, fresh ())) Inject.all_classes in
  let clean_divergences = ref 0 in
  List.iter
    (fun e ->
      if e.clean_diverged then incr clean_divergences;
      tally (e.oracle_hit, e.clean_diverged) oracle;
      tally (e.oracle_hit, e.clean_diverged) (List.assoc e.pair.cls per_class);
      let flagged t = flagged e.pair.cls t in
      List.iter
        (fun (t, c) -> tally (flagged t e.inj_reports, flagged t e.clean_reports) c)
        tool_rows)
    evals;
  {
    pairs = List.length evals;
    gen_failures;
    clean_divergences = !clean_divergences;
    rows =
      (Tools.oracle_name, oracle)
      :: List.map (fun (t, c) -> (Tools.tool_name t, c)) tool_rows;
    per_class;
  }

let report_to_string (r : report) : string =
  let b = Buffer.create 1024 in
  Printf.bprintf b "labeled corpus: %d pairs (typecheck failures: %d)\n"
    r.pairs r.gen_failures;
  Printf.bprintf b "clean-twin divergences: %d\n\n" r.clean_divergences;
  Printf.bprintf b "%-16s %5s %5s %5s %8s\n" "tool" "TP" "FP" "FN" "det%";
  List.iter
    (fun (name, c) ->
      let det =
        if c.tp + c.fn = 0 then 0.
        else 100. *. float_of_int c.tp /. float_of_int (c.tp + c.fn)
      in
      Printf.bprintf b "%-16s %5d %5d %5d %7.1f%%\n" name c.tp c.fp c.fn det)
    r.rows;
  Buffer.add_string b "\nper-class (CompDiff):\n";
  List.iter
    (fun (cls, c) ->
      if c.tp + c.fn > 0 then
        Printf.bprintf b "  %-16s %d/%d detected\n" (Inject.class_name cls)
          c.tp (c.tp + c.fn))
    r.per_class;
  Buffer.contents b

(* measured oracle miss rate on the injected corpus (the bench gate's
   reported FN rate) *)
let oracle_fn_rate (r : report) : float =
  match List.assoc_opt Tools.oracle_name r.rows with
  | Some c when c.tp + c.fn > 0 ->
    float_of_int c.fn /. float_of_int (c.tp + c.fn)
  | _ -> 0.
