(* Divergence triage.

   Many inputs trigger the same underlying bug; like AFL crash dedup,
   divergences are bucketed by a signature. Our signature is the shape of
   the behaviour partition: which implementations agree with which (not
   the concrete outputs, which often vary with the input bytes). *)

type reduced = {
  red_input : string;
  red_observations : (string * Oracle.observation) list;
  red_checks : int;
}

type diff_entry = {
  input : string;
  observations : (string * Oracle.observation) list;
  signature : int;
  mutable reduced : reduced option;
}

(* canonical-form partition signature: rename class ids in first-seen
   order so the signature depends only on the grouping *)
let signature_of_partition (classes : int array) : int =
  let canon = Array.make (Array.length classes) 0 in
  let next = ref 0 in
  let map = Hashtbl.create 8 in
  Array.iteri
    (fun i c ->
      match Hashtbl.find_opt map c with
      | Some id -> canon.(i) <- id
      | None ->
        Hashtbl.add map c !next;
        canon.(i) <- !next;
        incr next)
    classes;
  let s = String.concat "," (Array.to_list (Array.map string_of_int canon)) in
  Cdutil.Murmur3.hash s

type t = {
  mutable entries : diff_entry list;      (* newest first *)
  mutable signatures : (int, int) Hashtbl.t; (* signature -> count *)
}

let create () = { entries = []; signatures = Hashtbl.create 16 }

let add t (oracle : Oracle.t) ~(input : string)
    (obs : (string * Oracle.observation) list) : [ `New | `Duplicate ] =
  let classes = Oracle.partition oracle obs in
  let signature = signature_of_partition classes in
  let entry = { input; observations = obs; signature; reduced = None } in
  t.entries <- entry :: t.entries;
  match Hashtbl.find_opt t.signatures signature with
  | Some n ->
    Hashtbl.replace t.signatures signature (n + 1);
    `Duplicate
  | None ->
    Hashtbl.add t.signatures signature 1;
    `New

let unique_count t = Hashtbl.length t.signatures
let total_count t = List.length t.entries
let entries t = List.rev t.entries

(* Attach a reduced reproducer to the (most recent) entry holding the
   raw input it was reduced from. *)
let attach_reduced t ~(input : string) (r : reduced) : unit =
  match List.find_opt (fun e -> e.input = input) t.entries with
  | Some e -> e.reduced <- Some r
  | None -> ()

let reduced_count t =
  List.length (List.filter (fun e -> e.reduced <> None) t.entries)

(* one representative entry per signature *)
let representatives t : diff_entry list =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun e ->
      if Hashtbl.mem seen e.signature then false
      else begin
        Hashtbl.add seen e.signature ();
        true
      end)
    (List.rev t.entries)

(* --- root-cause suggestion (Table 5) ---

   A localized divergence names the function where the observable
   behaviour first differs; UnstableCheck names the sites whose semantics
   are implementation-defined. Intersecting the two attributes the
   divergence to a root-cause category of Table 5. *)

let table5_label (k : Staticcheck.Finding.kind) : string =
  match k with
  | Staticcheck.Finding.Uninit -> "UninitMem"
  | Staticcheck.Finding.Int_error | Staticcheck.Finding.Div_zero -> "IntError"
  | Staticcheck.Finding.Mem_error | Staticcheck.Finding.Null_deref -> "MemError"
  | Staticcheck.Finding.Ptr_sub -> "PointerCmp"
  | Staticcheck.Finding.Bad_call | Staticcheck.Finding.Ub_generic -> "Misc."

type root_cause = {
  rc_label : string;                    (* Table 5 category *)
  rc_finding : Staticcheck.Finding.t;   (* the supporting static finding *)
  rc_in_function : bool;  (* finding lies in the function that diverged *)
}

let suggest_root_cause (p : Minic.Ast.program)
    (l : Localize.t) : root_cause option =
  let findings =
    if l.Localize.diverging_event = None then []
    else Staticcheck.Static_tools.check Staticcheck.Static_tools.Unstable p
  in
  let diverging_fns =
    List.filter_map
      (Option.map (fun (e : Cdtrace.event) -> e.Cdtrace.ev_fn))
      [ l.Localize.ev_a; l.Localize.ev_b ]
  in
  let in_fn (f : Staticcheck.Finding.t) =
    match f.Staticcheck.Finding.func with
    | Some fn -> List.mem fn diverging_fns
    | None -> false
  in
  (* prefer findings inside the diverging function, then detection-grade
     over downgraded ones, then the earliest site *)
  let score (f : Staticcheck.Finding.t) =
    ( (if in_fn f then 0 else 1),
      (match f.Staticcheck.Finding.severity with
      | Staticcheck.Finding.Error -> 0
      | Staticcheck.Finding.Warning -> 1),
      f.Staticcheck.Finding.line )
  in
  List.fold_left
    (fun acc f ->
      match acc with
      | Some g when score g <= score f -> acc
      | _ -> Some f)
    None findings
  |> Option.map (fun (f : Staticcheck.Finding.t) ->
         {
           rc_label = table5_label f.Staticcheck.Finding.kind;
           rc_finding = f;
           rc_in_function = in_fn f;
         })

(* --- second-level dedup for reporting ---

   The partition signature is the cheap online dedup of Algorithm 1.
   For the final report the paper groups by root cause: once reduced
   reproducers exist we can afford the expensive key — the function the
   divergence localizes to plus the Table 5 label UnstableCheck suggests
   for it.  Distinct partition signatures frequently collapse here
   (many behaviour shapes, one bug). *)

type report_key = { rk_fn : string option; rk_label : string option }

let report_key_to_string k =
  Printf.sprintf "%s / %s"
    (Option.value ~default:"(no localized function)" k.rk_fn)
    (Option.value ~default:"(no root cause)" k.rk_label)

(* the reduced reproducer when the reducer has run, else the raw one *)
let reproducer (e : diff_entry) =
  match e.reduced with
  | Some r -> (r.red_input, r.red_observations)
  | None -> (e.input, e.observations)

(* Key of one entry, computed on the reduced reproducer when present.
   Localization replays on the oracle's binaries at the verdict fuel. *)
let entry_key (oracle : Oracle.t) ?program (e : diff_entry) : report_key =
  let input, obs = reproducer e in
  let l = Localize.of_divergence ~level:Cdtrace.Prints oracle obs ~input in
  let rk_fn = Option.bind l Localize.diverging_fn in
  let rk_label =
    match (program, l) with
    | Some p, Some l ->
      Option.map (fun rc -> rc.rc_label) (suggest_root_cause p l)
    | _ -> None
  in
  { rk_fn; rk_label }

(* Deep (instruction-level) localization of one entry, on its reduced
   reproducer when the reducer has run: the Table-5 bucket names the
   category, this names the first diverging instruction inside it. *)
let entry_deep (oracle : Oracle.t) ?limit (e : diff_entry) :
    Localize.t option =
  let input, obs = reproducer e in
  Localize.of_divergence ~level:Cdtrace.Steps ?limit oracle obs ~input

(* One bucket per (localized function, root cause), in first-seen order;
   inside a bucket the smallest reproducer leads.  Operates on the
   signature representatives, so both dedup levels compose. *)
let report_buckets t (oracle : Oracle.t) ?program () :
    (report_key * diff_entry list) list =
  let buckets = ref [] in
  List.iter
    (fun e ->
      let k = entry_key oracle ?program e in
      if List.mem_assoc k !buckets then
        buckets :=
          List.map
            (fun (k', es) -> if k' = k then (k', e :: es) else (k', es))
            !buckets
      else buckets := !buckets @ [ (k, [ e ]) ])
    (representatives t);
  let size e = String.length (fst (reproducer e)) in
  List.map
    (fun (k, es) ->
      (k, List.stable_sort (fun a b -> compare (size a) (size b)) (List.rev es)))
    !buckets

let root_cause_to_string (rc : root_cause) : string =
  let f = rc.rc_finding in
  Printf.sprintf "suggested root cause: %s -- %s at line %d%s%s\n" rc.rc_label
    f.Staticcheck.Finding.message f.Staticcheck.Finding.line
    (match f.Staticcheck.Finding.func with
    | Some fn -> " in '" ^ fn ^ "'"
    | None -> "")
    (if rc.rc_in_function then "" else " (outside the diverging function)")

(* --- meta-checker tally (Table-3-style FP/FN accounting per tool) ---

   The metamorphic meta-checker flags per-tool verdict changes; this
   accumulates them into one row per (tool, Table 5 bucket), the same
   bucketing the divergence reports use, so checker weaknesses and
   oracle root causes line up in the output. *)

module Tally = struct
  type counts = {
    mutable fp : int;      (* reports surviving a UB-eliminating rewrite *)
    mutable fn : int;      (* reports lost under a UB-preserving rewrite *)
    mutable xfn : int;     (* oracle-cross-validated silent sanitizers *)
    mutable drift : int;   (* informational verdict changes *)
  }

  type t = ((string * string) * counts) list ref  (* (tool, bucket) rows *)

  let create () : t = ref []

  let find (t : t) (key : string * string) : counts =
    match List.assoc_opt key !t with
    | Some c -> c
    | None ->
      let c = { fp = 0; fn = 0; xfn = 0; drift = 0 } in
      t := !t @ [ (key, c) ];
      c

  let bump (t : t) ~tool ~bucket what =
    let c = find t (tool, bucket) in
    match what with
    | `Fp -> c.fp <- c.fp + 1
    | `Fn -> c.fn <- c.fn + 1
    | `Xfn -> c.xfn <- c.xfn + 1
    | `Drift -> c.drift <- c.drift + 1

  let rows (t : t) : ((string * string) * counts) list = !t

  let total (t : t) : counts =
    let acc = { fp = 0; fn = 0; xfn = 0; drift = 0 } in
    List.iter
      (fun (_, c) ->
        acc.fp <- acc.fp + c.fp;
        acc.fn <- acc.fn + c.fn;
        acc.xfn <- acc.xfn + c.xfn;
        acc.drift <- acc.drift + c.drift)
      !t;
    acc

  let to_string (t : t) : string =
    let cells =
      List.map
        (fun ((tool, bucket), c) ->
          [
            tool;
            bucket;
            string_of_int c.fp;
            string_of_int c.fn;
            string_of_int c.xfn;
            string_of_int c.drift;
          ])
        !t
    in
    let tot = total t in
    let cells =
      cells
      @ [
          [
            "total";
            "";
            string_of_int tot.fp;
            string_of_int tot.fn;
            string_of_int tot.xfn;
            string_of_int tot.drift;
          ];
        ]
    in
    Cdutil.Tablefmt.render
      ~aligns:
        Cdutil.Tablefmt.[ Left; Left; Right; Right; Right; Right ]
      ~header:[ "tool"; "bucket"; "FP"; "FN"; "xval-FN"; "drift" ]
      cells
end
