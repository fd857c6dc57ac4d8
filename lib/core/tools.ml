(* One evaluation of the seven tools CompDiff is compared with, and of
   the oracle, on one program and one input set.

   Table 3 (Juliet), the labeled corpus and the meta-checker all run the
   four static analyzers, the three sanitizers and the oracle and reduce
   what they see to their own tables; this is the one place that runs
   them.  Every tool speaks one report type:

   - a static tool reports each of its [Error]-severity findings, run
     on the typed program erased back to source form;
   - a sanitizer reports each distinct kind its messages classify
     into, over one batched VM run of the input set on one build that
     all three share;
   - the oracle is not a report: it contributes one {!Oracle.check_batch}
     verdict per input, and its {!Oracle.t} for reduction and
     partitions. *)

module San = Sanitizers.San
module Static_tools = Staticcheck.Static_tools
module Finding = Staticcheck.Finding

type tool = Static of Static_tools.tool | Sanitizer of San.kind

type report = {
  tool : tool;
  kind : Finding.kind;
  line : int option; (* static findings carry a line; sanitizer reports don't *)
}

type t = {
  reports : report list; (* static tools, then sanitizers, in registry order *)
  oracle : Oracle.t;
  verdicts : Oracle.verdict array; (* one per input, in input order *)
}

let oracle_name = "CompDiff"

let tool_name = function
  | Static t -> Static_tools.name t
  | Sanitizer k -> San.name k

let all =
  List.map (fun t -> Static t) Static_tools.all
  @ List.map (fun k -> Sanitizer k) San.all

(* --- static tools --- *)

let static (t : Static_tools.tool) (p : Minic.Ast.program) : report list =
  List.filter_map
    (fun (f : Finding.t) ->
      if f.Finding.severity = Finding.Error then
        Some { tool = Static t; kind = f.Finding.kind; line = Some f.Finding.line }
      else None)
    (Static_tools.check t p)

(* --- sanitizers --- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* classify a sanitizer report message into the static tools' kinds *)
let classify_san (kind : San.kind) (msg : string) : Finding.kind =
  match kind with
  | San.Asan -> Finding.Mem_error
  | San.Msan -> Finding.Uninit
  | San.Ubsan ->
    if contains msg "division by zero" || contains msg "/ -1" then
      Finding.Div_zero
    else if contains msg "shift" then Finding.Ub_generic
    else if contains msg "null pointer" then Finding.Null_deref
    else Finding.Int_error

(* one report per distinct kind over the whole input set, as the static
   tools keep one finding per (kind, line) *)
let sanitizer ?fuel (k : San.kind) (b : San.build) ~(inputs : string list) :
    report list =
  List.filter_map (Option.map (classify_san k)) (San.reports ?fuel k b ~inputs)
  |> List.sort_uniq compare
  |> List.map (fun kind -> { tool = Sanitizer k; kind; line = None })

(* --- one evaluation --- *)

(* The oracle's part of {!run} alone: its verdicts, and no report. *)
let check ?session ?profiles ?jobs ?fuel (tp : Minic.Tast.tprogram)
    ~(inputs : string list) : t =
  let oracle = Oracle.create ?session ?profiles ?fuel ?jobs tp in
  let verdicts = Oracle.check_batch oracle ~inputs:(Array.of_list inputs) in
  { reports = []; oracle; verdicts }

(* The oracle goes first: with a session, the sanitizer build is its
   gccx-O0 unit and image, served from the caches. *)
let run ?session ?profiles ?jobs ?fuel (tp : Minic.Tast.tprogram)
    ~(inputs : string list) : t =
  let r = check ?session ?profiles ?jobs ?fuel tp ~inputs in
  let p = Minic.Tast.erase_program tp in
  let b = San.build ?session tp in
  let reports =
    List.concat_map
      (function
        | Static t -> static t p
        | Sanitizer k -> sanitizer ?fuel k b ~inputs)
      all
  in
  { r with reports }

(* --- projections --- *)

(* did [tool] report, with one of [kinds] when given *)
let flags ?kinds (tool : tool) (reports : report list) : bool =
  List.exists
    (fun r ->
      r.tool = tool
      && match kinds with None -> true | Some ks -> List.mem r.kind ks)
    reports

(* the first input whose verdict diverges, with its observations: the
   "save to diffs/" step of Algorithm 1 *)
let first_divergence (r : t) ~(inputs : string list) :
    (string * (string * Oracle.observation) list) option =
  List.find_mapi
    (fun i input ->
      match r.verdicts.(i) with
      | Oracle.Diverge obs -> Some (input, obs)
      | Oracle.Agree _ -> None)
    inputs

let diverges (r : t) : bool = Array.exists Oracle.is_divergence r.verdicts

(* reports of [a] absent from [b] *)
let diff (a : report list) (b : report list) : report list =
  List.filter (fun r -> not (List.mem r b)) a

let to_string (r : report) : string =
  Printf.sprintf "[%s] %s%s" (tool_name r.tool)
    (Finding.kind_to_string r.kind)
    (match r.line with Some l -> Printf.sprintf " at line %d" l | None -> "")
