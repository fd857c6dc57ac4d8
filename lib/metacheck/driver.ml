(* The metamorphic meta-checker (turning the oracle on the checkers).

   For a seed program we compute a baseline verdict set — every static
   tool, every sanitizer, and the differential oracle itself — then
   generate metamorphic twins and compare:

   - a report that *vanishes* under a UB-preserving rewrite is
     FN-inducing instability of that checker (the bug is still there,
     the checker lost it);
   - a report that *survives* a UB-eliminating rewrite (or appears on
     the now-UB-free twin) is a false positive;
   - an oracle divergence with *no* sanitizer report at all is a
     cross-validated sanitizer FN: ground truth says the program is
     unstable and the sanitizers are silent.

   Twins are analyzed through the same engine {!Engine.Session} as the
   baseline, batched over {!Cdutil.Pool} ([analyze]) or sequentially
   ([analyze_naive]); both produce identical flags, which the bench
   cross-validates. *)

module Oracle = Compdiff.Oracle
module Triage = Compdiff.Triage
module Tools = Compdiff.Tools

type what = Fn_instability | Fp | Xval_fn | Drift

let what_to_string = function
  | Fn_instability -> "FN-instability"
  | Fp -> "FP"
  | Xval_fn -> "cross-validated FN"
  | Drift -> "drift"

type flag = {
  fl_tool : string;
  fl_rule : string;  (* transform rule that exposed it; "baseline" for xval *)
  fl_what : what;
  fl_kind : Staticcheck.Finding.kind option;
  fl_detail : string;
}

type verdicts = {
  v_static : Tools.report list;
  v_san : Tools.report list;
  v_oracle : (string * int) list;
      (* diverging input -> partition signature *)
}

type result = {
  mc_name : string;
  mc_preserving : int;       (* preserving twins generated *)
  mc_eliminating : int;      (* eliminating twins generated *)
  mc_rules : string list;    (* distinct rules exercised *)
  mc_retype_failures : (string * string) list; (* rule, type error *)
  mc_baseline : verdicts;
  mc_flags : flag list;
}

(* --- per-program verdicts: one {!Tools.run}, one oracle batch --- *)

let verdicts_of ?session ?profiles ?fuel (tp : Minic.Tast.tprogram)
    ~(inputs : string list) : verdicts =
  let r = Tools.run ?session ?profiles ~jobs:1 ?fuel tp ~inputs in
  let v_san, v_static =
    List.partition
      (fun (rp : Tools.report) ->
        match rp.Tools.tool with Tools.Sanitizer _ -> true | Tools.Static _ -> false)
      r.Tools.reports
  in
  let v_oracle =
    List.concat
      (List.mapi
         (fun i input ->
           match r.Tools.verdicts.(i) with
           | Oracle.Agree _ -> []
           | Oracle.Diverge obs ->
             [ (input,
                Triage.signature_of_partition (Oracle.partition r.Tools.oracle obs)) ])
         inputs)
  in
  { v_static; v_san; v_oracle }

(* Re-typecheck a twin by erasing it back to source form; every
   metamorphic twin must survive this or the transform is unsound. *)
let retype (tp : Minic.Tast.tprogram) :
    (Minic.Tast.tprogram, string) Stdlib.result =
  Minic.Typecheck.check_program_result (Minic.Tast.erase_program tp)

(* --- twin comparison --- *)

let flags_of_preserving ~(base : verdicts) ~(rule : string) (tw : verdicts) :
    flag list =
  let vanished = Tools.diff base.v_static tw.v_static in
  let appeared = Tools.diff tw.v_static base.v_static in
  let san_vanished = Tools.diff base.v_san tw.v_san in
  let san_appeared = Tools.diff tw.v_san base.v_san in
  let static_flags =
    List.map
      (fun (r : Tools.report) ->
        {
          fl_tool = Tools.tool_name r.Tools.tool;
          fl_rule = rule;
          fl_what = Fn_instability;
          fl_kind = Some r.Tools.kind;
          fl_detail =
            Printf.sprintf "%s vanished under %s" (Tools.to_string r) rule;
        })
      (vanished @ san_vanished)
  in
  let drift_flags =
    List.map
      (fun (r : Tools.report) ->
        {
          fl_tool = Tools.tool_name r.Tools.tool;
          fl_rule = rule;
          fl_what = Drift;
          fl_kind = Some r.Tools.kind;
          fl_detail =
            Printf.sprintf "%s appeared under %s" (Tools.to_string r) rule;
        })
      (appeared @ san_appeared)
  in
  let oracle_flags =
    List.filter_map
      (fun (input, sg) ->
        match List.assoc_opt input tw.v_oracle with
        | Some sg' when sg' = sg -> None
        | Some _ ->
          Some
            {
              fl_tool = Tools.oracle_name;
              fl_rule = rule;
              fl_what = Drift;
              fl_kind = None;
              fl_detail =
                Printf.sprintf
                  "divergence class changed under %s on input %S" rule input;
            }
        | None ->
          Some
            {
              fl_tool = Tools.oracle_name;
              fl_rule = rule;
              fl_what = Fn_instability;
              fl_kind = None;
              fl_detail =
                Printf.sprintf
                  "divergence vanished under %s on input %S" rule input;
            })
      base.v_oracle
  in
  let oracle_new =
    List.filter_map
      (fun (input, _) ->
        if List.mem_assoc input base.v_oracle then None
        else
          Some
            {
              fl_tool = Tools.oracle_name;
              fl_rule = rule;
              fl_what = Drift;
              fl_kind = None;
              fl_detail =
                Printf.sprintf
                  "new divergence under %s on input %S" rule input;
            })
      tw.v_oracle
  in
  static_flags @ drift_flags @ oracle_flags @ oracle_new

let flags_of_eliminating ~(el : Transform.elim) (tw : verdicts) : flag list =
  let rule = el.Transform.el_rule in
  let kinds = el.Transform.el_kinds in
  let static_fp =
    List.filter_map
      (fun (r : Tools.report) ->
        let line_hit =
          match r.Tools.line with
          | Some l -> List.mem l el.Transform.el_lines
          | None -> false
        in
        if List.mem r.Tools.kind kinds && line_hit then
          Some
            {
              fl_tool = Tools.tool_name r.Tools.tool;
              fl_rule = rule;
              fl_what = Fp;
              fl_kind = Some r.Tools.kind;
              fl_detail =
                Printf.sprintf "%s survives %s at a rewritten site"
                  (Tools.to_string r) rule;
            }
        else None)
      tw.v_static
  in
  let san_fp =
    if not el.Transform.el_complete then []
      (* partial elimination: surviving dynamic reports are inconclusive *)
    else
      List.filter_map
        (fun (r : Tools.report) ->
          if List.mem r.Tools.kind kinds then
            Some
              {
                fl_tool = Tools.tool_name r.Tools.tool;
                fl_rule = rule;
                fl_what = Fp;
                fl_kind = Some r.Tools.kind;
                fl_detail =
                  Printf.sprintf "%s survives complete %s"
                    (Tools.to_string r) rule;
              }
          else None)
        tw.v_san
  in
  static_fp @ san_fp

let xval_flags (base : verdicts) : flag list =
  if base.v_oracle = [] || base.v_san <> [] then []
  else
    List.map
      (fun k ->
        let input, sg = List.hd base.v_oracle in
        {
          fl_tool = Sanitizers.San.name k;
          fl_rule = "baseline";
          fl_what = Xval_fn;
          fl_kind = None;
          fl_detail =
            Printf.sprintf
              "oracle diverges (input %S, class %08x) with no sanitizer \
               report"
              input (sg land 0xffffffff);
        })
      Sanitizers.San.all

(* --- driver --- *)

let analyze_with ~map ?session ?profiles ?fuel ?(limit = 4) ~name
    (tp : Minic.Tast.tprogram) ~(inputs : string list) : result =
  let base = verdicts_of ?session ?profiles ?fuel tp ~inputs in
  let pres = Transform.preserving ~limit_per_rule:limit tp in
  let elims = Transform.eliminating tp in
  let check_pres (tw : Transform.twin) =
    match retype tw.Transform.tw_prog with
    | Error msg -> Error (tw.Transform.tw_rule, msg)
    | Ok tp' ->
      let v = verdicts_of ?session ?profiles ?fuel tp' ~inputs in
      Ok (flags_of_preserving ~base ~rule:tw.Transform.tw_rule v)
  in
  let check_elim (el : Transform.elim) =
    match retype el.Transform.el_prog with
    | Error msg -> Error (el.Transform.el_rule, msg)
    | Ok tp' ->
      let v = verdicts_of ?session ?profiles ?fuel tp' ~inputs in
      Ok (flags_of_eliminating ~el v)
  in
  let tasks =
    List.map (fun tw () -> check_pres tw) pres
    @ List.map (fun el () -> check_elim el) elims
  in
  let outs = map (fun th -> th ()) tasks in
  let failures =
    List.filter_map (function Error e -> Some e | Ok _ -> None) outs
  in
  let twin_flags =
    List.concat_map (function Ok fs -> fs | Error _ -> []) outs
  in
  let rules =
    List.sort_uniq compare
      (List.map (fun t -> t.Transform.tw_rule) pres
      @ List.map (fun e -> e.Transform.el_rule) elims)
  in
  {
    mc_name = name;
    mc_preserving = List.length pres;
    mc_eliminating = List.length elims;
    mc_rules = rules;
    mc_retype_failures = failures;
    mc_baseline = base;
    mc_flags = xval_flags base @ twin_flags;
  }

let analyze ?pool ?session ?profiles ?fuel ?limit ~name tp ~inputs : result =
  analyze_with ~map:(fun f xs -> Cdutil.Pool.map ?pool f xs) ?session
    ?profiles ?fuel ?limit ~name tp ~inputs

let analyze_naive ?session ?profiles ?fuel ?limit ~name tp ~inputs : result =
  analyze_with ~map:List.map ?session ?profiles ?fuel ?limit ~name tp ~inputs

(* Comparable essence of a result, for batched/naive cross-validation
   (flag order within a twin is deterministic; twin order is fixed by
   the transform enumeration, so whole results compare directly). *)
let essence (r : result) : string =
  String.concat "\n"
    (Printf.sprintf "%s p=%d e=%d fail=%d" r.mc_name r.mc_preserving
       r.mc_eliminating
       (List.length r.mc_retype_failures)
    :: List.map
         (fun f ->
           Printf.sprintf "%s|%s|%s|%s" f.fl_tool f.fl_rule
             (what_to_string f.fl_what)
             f.fl_detail)
         r.mc_flags)

(* --- rendering --- *)

let flag_to_string (f : flag) : string =
  Printf.sprintf "%-19s %-14s %-12s %s"
    (what_to_string f.fl_what)
    f.fl_tool f.fl_rule f.fl_detail

let result_to_string (r : result) : string =
  let buf = Buffer.create 512 in
  Printf.bprintf buf "== %s ==\n" r.mc_name;
  Printf.bprintf buf "preserving twins: %d\n" r.mc_preserving;
  Printf.bprintf buf "eliminating twins: %d\n" r.mc_eliminating;
  Printf.bprintf buf "rules: %s\n" (String.concat ", " r.mc_rules);
  Printf.bprintf buf "baseline: %d static, %d sanitizer, %d divergent input(s)\n"
    (List.length r.mc_baseline.v_static)
    (List.length r.mc_baseline.v_san)
    (List.length r.mc_baseline.v_oracle);
  List.iter
    (fun (rule, msg) ->
      Printf.bprintf buf "RETYPE FAILURE under %s: %s\n" rule msg)
    r.mc_retype_failures;
  List.iter (fun f -> Printf.bprintf buf "  %s\n" (flag_to_string f)) r.mc_flags;
  Buffer.contents buf
