(* Registry and uniform interface over the static analyzers: the three
   AST pattern matchers modeled after off-the-shelf tools, plus the
   IR-level dataflow analyzer ({!Unstable_check}). *)

type tool = Coverity | Cppcheck | Infer | Unstable

let name = function
  | Coverity -> "Coverity-like"
  | Cppcheck -> "Cppcheck-like"
  | Infer -> "Infer-like"
  | Unstable -> "UnstableCheck"

let all = [ Coverity; Cppcheck; Infer; Unstable ]

(* findings deduplicated by (kind, line): the replay of a block that is
   reachable along several paths must not inflate the report count *)
let dedup (fs : Finding.t list) : Finding.t list =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun (f : Finding.t) ->
      let key = (f.Finding.kind, f.Finding.line) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    fs

let check (t : tool) (p : Minic.Ast.program) : Finding.t list =
  dedup
    (match t with
    | Coverity -> Coverity_like.check p
    | Cppcheck -> Cppcheck_like.check p
    | Infer -> Infer_like.check p
    | Unstable -> Unstable_check.check p)

(* --- cross-tool dedup ---

   One row per (kind, line) across every tool, so a defect flagged by
   three analyzers reads as one finding with three confirmations rather
   than three findings.  Severity is the best (Error over Warning) any
   tool assigned; the representative finding comes from the first tool
   that saw the site, in [all] order. *)

type cross = {
  cx_finding : Finding.t;  (* representative (first tool, best severity) *)
  cx_tools : tool list;    (* every tool that flagged this (kind, line) *)
}

let check_all (p : Minic.Ast.program) : cross list =
  let rows : ((Finding.kind * int) * cross ref) list ref = ref [] in
  List.iter
    (fun t ->
      List.iter
        (fun (f : Finding.t) ->
          let key = (f.Finding.kind, f.Finding.line) in
          match List.assoc_opt key !rows with
          | Some r ->
            let c = !r in
            let best =
              if
                c.cx_finding.Finding.severity = Finding.Warning
                && f.Finding.severity = Finding.Error
              then f
              else c.cx_finding
            in
            r := { cx_finding = best; cx_tools = c.cx_tools @ [ t ] }
          | None ->
            rows := !rows @ [ (key, ref { cx_finding = f; cx_tools = [ t ] }) ])
        (check t p))
    all;
  List.map (fun (_, r) -> !r) !rows

let cross_to_string (c : cross) : string =
  Printf.sprintf "%s  [agreed by: %s]"
    (Format.asprintf "%a" Finding.pp c.cx_finding)
    (String.concat ", " (List.map name c.cx_tools))

(* does it report an [Error]-severity finding of one of the given kinds? *)
let flags_kinds (t : tool) (p : Minic.Ast.program) (kinds : Finding.kind list) : bool =
  List.exists
    (fun f ->
      f.Finding.severity = Finding.Error && List.mem f.Finding.kind kinds)
    (check t p)
