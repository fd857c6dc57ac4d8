(* Oracle-validated divergence reduction (paper Section 5).

   A saved divergence is a raw havoc-mutated blob; the paper's reports
   are reduced reproducers.  This module shrinks the (program, input)
   pair while preserving the *divergence class*:

     - the behaviour partition (which implementations agree with
       which), which also pins the first disagreeing implementation
       pair, and
     - the function the divergence localizes to, traced at the fuel the
       verdict was obtained at (Oracle.verdict_fuel) on the linked
       executor.

   Every candidate — a shorter input, a canonicalized byte, a program
   with a statement dropped — is re-validated through a full oracle
   check before it is accepted (program candidates may be rejected
   earlier, on two profiles), so a candidate that diverges *differently*
   (an unrelated bug uncovered by the edit) is rejected rather than
   silently swapped in.  Soundness is therefore trivial: the final pair
   was validated by the very oracle that will judge the report. *)

type cls = {
  cls_partition : int array;
  cls_signature : int;
  cls_pair : (string * string) option;
  cls_fn : string option;
}

type stats = {
  checks : int;
  input_before : int;
  input_after : int;
  stmts_before : int;
  stmts_after : int;
}

type result = {
  red_input : string;
  red_observations : (string * Oracle.observation) list;
  red_program : Minic.Ast.program option;
  red_class : cls;
  red_stats : stats;
}

let class_of (oracle : Oracle.t) ~(input : string)
    (obs : (string * Oracle.observation) list) : cls =
  let cls_partition = Oracle.partition oracle obs in
  let cls_signature = Triage.signature_of_partition cls_partition in
  let cls_pair = Localize.divergent_pair oracle obs in
  let cls_fn =
    Option.bind
      (Localize.of_divergence ~level:Cdtrace.Prints oracle obs ~input)
      Localize.diverging_fn
  in
  { cls_partition; cls_signature; cls_pair; cls_fn }

(* Whether [obs], observed by [o] on [input], is in class [cls]: the
   same partition, compared exactly rather than by signature, and the
   same localized function.  A candidate whose partition already
   differs is not localized. *)
let in_class cls (o : Oracle.t) ~input obs =
  Oracle.partition o obs = cls.cls_partition
  && (class_of o ~input obs).cls_fn = cls.cls_fn

let input_ratio (s : stats) : float =
  if s.input_before = 0 then 0.
  else 1. -. (float_of_int s.input_after /. float_of_int s.input_before)

type summary = {
  sm_divergences : int;
  sm_raw_bytes : int;
  sm_reduced_bytes : int;
  sm_median_ratio : float;
  sm_checks : int;
}

let summarize (ss : stats list) : summary =
  let sum f = List.fold_left (fun a s -> a + f s) 0 ss in
  {
    sm_divergences = List.length ss;
    sm_raw_bytes = sum (fun s -> s.input_before);
    sm_reduced_bytes = sum (fun s -> s.input_after);
    sm_median_ratio =
      (if ss = [] then 0.
       else Cdutil.Stats.percentile 0.5 (List.map input_ratio ss));
    sm_checks = sum (fun s -> s.checks);
  }

let summary_json (m : summary) : Cdutil.Json.t =
  Obj
    [ ("divergences", Int m.sm_divergences); ("raw_bytes", Int m.sm_raw_bytes);
      ("reduced_bytes", Int m.sm_reduced_bytes);
      ("median_ratio", Float m.sm_median_ratio); ("checks", Int m.sm_checks) ]

(* --- input reduction: ddmin, then byte canonicalization --- *)

(* ddmin in its complement-removal form: split the input into [n]
   chunks, try dropping each; on success restart from the shorter input
   at granularity [n - 1], otherwise double [n] until chunks are single
   bytes.  One round's candidates are independent edits of the same
   input, so they are screened as a batch ([test_batch], one batched
   oracle pass) — but acceptance must still be the FIRST passing
   candidate in order, which [test_batch] guarantees. *)
let ddmin ~(test_batch : string array -> string option) (s0 : string) : string =
  let current = ref s0 in
  let n = ref 2 in
  let continue_ = ref (String.length s0 > 0) in
  while !continue_ do
    let len = String.length !current in
    if len = 0 then continue_ := false
    else begin
      let n' = min !n len in
      let chunk = (len + n' - 1) / n' in
      let nchunks = (len + chunk - 1) / chunk in
      let cands =
        Array.init nchunks (fun i ->
            let lo = i * chunk and hi = min len ((i + 1) * chunk) in
            String.sub !current 0 lo ^ String.sub !current hi (len - hi))
      in
      match test_batch cands with
      | Some cand ->
        current := cand;
        n := max 2 (n' - 1)
      | None ->
        if chunk <= 1 then continue_ := false else n := min (2 * n') len
    end
  done;
  !current

(* Canonicalize the surviving bytes: prefer '\000', else a printable
   digit, so the reproducer reads as regular structure plus the few
   bytes that actually matter.  Length never changes. *)
let canonicalize ~(test : string -> bool) (s0 : string) : string =
  let current = ref s0 in
  String.iteri
    (fun i c ->
      let try_byte r =
        if c = r then false
        else begin
          let b = Bytes.of_string !current in
          Bytes.set b i r;
          let cand = Bytes.to_string b in
          if test cand then begin
            current := cand;
            true
          end
          else false
        end
      in
      if not (try_byte '\000') then ignore (try_byte '0'))
    s0;
  !current

(* --- structural program reduction --- *)

open Minic.Ast

(* Pre-order traversal assigning every statement (nested ones included)
   an index; [f i s = Some repl] substitutes [repl] for the statement
   without descending into it, [None] keeps it and descends. *)
let map_stmts (f : int -> stmt -> stmt list option) (p : program) :
    program * int =
  let counter = ref 0 in
  let rec map_block (b : block) : block =
    List.concat_map
      (fun s ->
        let i = !counter in
        incr counter;
        match f i s with
        | Some repl -> repl
        | None ->
          let s' =
            match s.s with
            | SIf (c, a, b2) -> { s with s = SIf (c, map_block a, map_block b2) }
            | SWhile (c, b2) -> { s with s = SWhile (c, map_block b2) }
            | SBlock b2 -> { s with s = SBlock (map_block b2) }
            | SExpr _ | SDecl _ | SReturn _ | SBreak | SContinue | SPrint _ ->
              s
          in
          [ s' ])
      b
  in
  let funcs = List.map (fun fn -> { fn with body = map_block fn.body }) p.funcs in
  ({ p with funcs }, !counter)

let count_stmts (p : program) : int = snd (map_stmts (fun _ _ -> None) p)

let collect_stmts (p : program) : (int * stmt) list =
  let acc = ref [] in
  ignore
    (map_stmts
       (fun i s ->
         acc := (i, s) :: !acc;
         None)
       p);
  List.rev !acc

let zero = { e = EInt 0L; eloc = no_loc }

let is_zero e = match e.e with EInt 0L -> true | _ -> false

(* Candidate replacements for one statement, most aggressive first:
   drop it, flatten branches, zero the expressions it evaluates. *)
let stmt_rewrites (s : stmt) : stmt list list =
  let keep d = [ { s with s = d } ] in
  [ [] ]
  @ (match s.s with
    | SIf (_, a, b) ->
      (if a <> [] then [ keep (SBlock a) ] else [])
      @ if b <> [] then [ keep (SBlock b) ] else []
    | SWhile (_, b) -> if b <> [] then [ keep (SBlock b) ] else []
    | SDecl d when d.dinit <> None && d.dinit <> Some zero ->
      [ keep (SDecl { d with dinit = Some zero }) ]
    | SReturn (Some e) when not (is_zero e) -> [ keep (SReturn (Some zero)) ]
    | SExpr { e = EAssign (l, r); eloc } when not (is_zero r) ->
      [ keep (SExpr { e = EAssign (l, zero); eloc }) ]
    | SPrint (fmt, args) when List.exists (fun a -> not (is_zero a)) args ->
      [ keep (SPrint (fmt, List.map (fun _ -> zero) args)) ]
    | _ -> [])

let drop_nth l n = List.filteri (fun i _ -> i <> n) l

(* All one-step program simplifications, lazily: function drops first
   (the biggest wins), then globals, then per-statement rewrites. *)
let candidates (p : program) : program Seq.t =
  let func_drops =
    Seq.filter_map
      (fun i ->
        if (List.nth p.funcs i).fname = "main" then None
        else Some { p with funcs = drop_nth p.funcs i })
      (Seq.init (List.length p.funcs) Fun.id)
  in
  let global_drops =
    Seq.map
      (fun i -> { p with globals = drop_nth p.globals i })
      (Seq.init (List.length p.globals) Fun.id)
  in
  let stmt_edits =
    Seq.concat_map
      (fun (i, s) ->
        Seq.map
          (fun repl ->
            fst (map_stmts (fun j _ -> if j = i then Some repl else None) p))
          (List.to_seq (stmt_rewrites s)))
      (List.to_seq (collect_stmts p))
  in
  Seq.append func_drops (Seq.append global_drops stmt_edits)

(* --- the reducer --- *)

let terminated (o : Oracle.observation) = o.Oracle.status <> Cdvm.Trap.Hang

(* Whether the observations [oi] and [oj] of profiles [i] and [j], both
   terminated, contradict the partition [part]: equal checksums across
   classes, or different checksums within one. *)
let contradicts part (o : Oracle.t) (i, oi) (j, oj) =
  terminated oi && terminated oj
  && (part.(i) = part.(j)) <> (Oracle.checksum o oi = Oracle.checksum o oj)

(* the first contradicting pair of [obs] in index order: smallest [j],
   then smallest [i] *)
let first_contradiction part o obs =
  let obs = Array.of_list (List.map snd obs) in
  let rec go i j =
    if j >= Array.length obs then None
    else if i >= j then go 0 (j + 1)
    else if contradicts part o (i, obs.(i)) (j, obs.(j)) then Some (i, j)
    else go (i + 1) j
  in
  go 0 1

let reduce ?(max_checks = 1_000) ?program ?reoracle (oracle : Oracle.t)
    ~(input : string) (obs : (string * Oracle.observation) list) :
    result option =
  let cls = class_of oracle ~input obs in
  if cls.cls_pair = None then None
  else begin
    let checks = ref 0 in
    let best_obs = ref obs in
    (* one validation = one oracle check (plus the two localization
       traces); a candidate passes iff it still diverges in the same
       class *)
    let test_input cand =
      !checks < max_checks
      && begin
           incr checks;
           match Oracle.check oracle ~input:cand with
           | Oracle.Agree _ -> false
           | Oracle.Diverge obs' ->
             if in_class cls oracle ~input:cand obs' then begin
               best_obs := obs';
               true
             end
             else false
         end
    in
    (* Batched round screening for ddmin: every candidate of the round
       goes through one batched oracle pass, then the verdicts are
       walked in candidate order — the accepted candidate, the class
       validations performed, and the consumed check budget are
       identical to testing candidates one by one.  (Candidates past
       the first acceptance are observed but not charged, mirroring the
       sequential loop, which never reaches them.) *)
    let screen_batch (cands : string array) : string option =
      let budget = max_checks - !checks in
      if budget <= 0 then None
      else begin
        let cands =
          if Array.length cands > budget then Array.sub cands 0 budget
          else cands
        in
        let verdicts = Oracle.check_batch oracle ~inputs:cands in
        let rec walk i =
          if i >= Array.length cands then None
          else begin
            incr checks;
            match verdicts.(i) with
            | Oracle.Agree _ -> walk (i + 1)
            | Oracle.Diverge obs' ->
              if in_class cls oracle ~input:cands.(i) obs' then begin
                best_obs := obs';
                Some cands.(i)
              end
              else walk (i + 1)
          end
        in
        walk 0
      end
    in
    let red_input =
      canonicalize ~test:test_input (ddmin ~test_batch:screen_batch input)
    in
    let red_program, red_observations, stmts_before, stmts_after =
      match program with
      | None -> (None, !best_obs, 0, 0)
      | Some p0 ->
        let reoracle =
          match reoracle with
          | Some f -> f
          | None -> fun tp -> Oracle.with_program oracle tp
        in
        let names = Array.of_list (Oracle.names oracle) in
        (* The screen (DESIGN.md §8.1): a candidate is first observed on
           the two profiles of the screen pair only, by an oracle with
           the re-oracle's settings (those of [template], the re-oracle
           of [p0]).  Terminated observations are final in the full
           oracle too, so a contradiction of the original partition
           there is a rejection the full check would make; anything
           else goes on to the full check.  After a full rejection the
           pair moves to the contradiction that rejected it. *)
        let pair =
          let index n = Option.get (Array.find_index (String.equal n) names) in
          let a, b = Option.get cls.cls_pair in
          ref (index a, index b)
        in
        let template =
          lazy
            (let t = reoracle (Minic.frontend_exn p0) in
             if Oracle.names t <> Oracle.names oracle then
               invalid_arg
                 "Reduce.reduce: the re-oracle must keep the oracle's profiles";
             t)
        in
        let screened_out tp =
          let i, j = !pair in
          let po =
            Oracle.with_program (Lazy.force template)
              ~names:[ names.(i); names.(j) ] tp
          in
          match Oracle.observe po ~input:red_input with
          | [ (_, oi); (_, oj) ] ->
            contradicts cls.cls_partition po (i, oi) (j, oj)
          | _ -> assert false
        in
        let prog_obs = ref None in
        let test_program cand =
          !checks < max_checks
          && begin
               match Minic.Typecheck.check_program_result cand with
               | Error _ -> false
               | Ok tp ->
                 incr checks;
                 (not (screened_out tp))
                 && begin
                      let o = reoracle tp in
                      let obs' = Oracle.observe o ~input:red_input in
                      if in_class cls o ~input:red_input obs' then begin
                        prog_obs := Some obs';
                        true
                      end
                      else begin
                        Option.iter (fun p -> pair := p)
                          (first_contradiction cls.cls_partition o obs');
                        false
                      end
                    end
             end
        in
        (* greedy fixpoint: apply the first validating one-step
           simplification, rescan from the simplified program *)
        let cur = ref p0 in
        let progressed = ref true in
        while !progressed && !checks < max_checks do
          match Seq.find test_program (candidates !cur) with
          | Some p' -> cur := p'
          | None -> progressed := false
        done;
        if !prog_obs = None then (None, !best_obs, 0, 0)
        else
          ( Some !cur,
            Option.get !prog_obs,
            count_stmts p0,
            count_stmts !cur )
    in
    Some
      {
        red_input;
        red_observations;
        red_program;
        red_class = cls;
        red_stats =
          {
            checks = !checks;
            input_before = String.length input;
            input_after = String.length red_input;
            stmts_before;
            stmts_after;
          };
      }
  end
