(* The common verdict shape every checker is projected into.

   Static tools already speak {!Staticcheck.Finding.kind}; sanitizer
   reports are classified into the same vocabulary from their message
   text, and the oracle contributes one entry per diverging input (keyed
   by the renaming-invariant partition signature).  Metamorphic
   comparison then happens uniformly on sets of these. *)

type t = {
  r_tool : string;
  r_kind : Staticcheck.Finding.kind;
  r_line : int option; (* static findings carry a line; dynamic ones don't *)
}

let compdiff_tool = "CompDiff"

(* --- static extraction --- *)

(* detection-grade findings of one tool as reports *)
let of_static (t : Staticcheck.Static_tools.tool) (p : Minic.Ast.program) :
    t list =
  List.filter_map
    (fun (f : Staticcheck.Finding.t) ->
      if f.Staticcheck.Finding.severity = Staticcheck.Finding.Error then
        Some
          {
            r_tool = Staticcheck.Static_tools.name t;
            r_kind = f.Staticcheck.Finding.kind;
            r_line = Some f.Staticcheck.Finding.line;
          }
      else None)
    (Staticcheck.Static_tools.check t p)

(* --- sanitizer extraction --- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* classify a sanitizer report message into the common kind vocabulary *)
let classify_san (kind : Sanitizers.San.kind) (msg : string) :
    Staticcheck.Finding.kind =
  match kind with
  | Sanitizers.San.Asan -> Staticcheck.Finding.Mem_error
  | Sanitizers.San.Msan -> Staticcheck.Finding.Uninit
  | Sanitizers.San.Ubsan ->
    if contains msg "division by zero" || contains msg "/ -1" then
      Staticcheck.Finding.Div_zero
    else if contains msg "shift" then Staticcheck.Finding.Ub_generic
    else if contains msg "null pointer" then Staticcheck.Finding.Null_deref
    else Staticcheck.Finding.Int_error

(* run one sanitizer over every input and collect the distinct report
   kinds (one build serves all inputs; hooks are per-run config) *)
let of_sanitizer ?fuel (kind : Sanitizers.San.kind)
    (b : Sanitizers.San.build) ~(inputs : string list) : t list =
  let kinds =
    List.sort_uniq compare
      (List.filter_map
         (fun input ->
           match
             (Sanitizers.San.run_built ?fuel kind b ~input).Cdvm.Exec.status
           with
           | Cdvm.Trap.San_report msg -> Some (classify_san kind msg)
           | Cdvm.Trap.Exit _ | Cdvm.Trap.Trap _ | Cdvm.Trap.Hang -> None)
         inputs)
  in
  List.map
    (fun k ->
      { r_tool = Sanitizers.San.name kind; r_kind = k; r_line = None })
    kinds

(* --- set-level comparison helpers --- *)

let key (r : t) = (r.r_tool, r.r_kind, r.r_line)

let diff (a : t list) (b : t list) : t list =
  let kb = List.map key b in
  List.filter (fun r -> not (List.mem (key r) kb)) a

let to_string (r : t) : string =
  Printf.sprintf "[%s] %s%s" r.r_tool
    (Staticcheck.Finding.kind_to_string r.r_kind)
    (match r.r_line with Some l -> Printf.sprintf " at line %d" l | None -> "")
