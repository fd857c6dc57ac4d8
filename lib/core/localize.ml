(* Fault localization (paper Section 5, "Fault localization and bug
   report"; DESIGN.md §15).

   The paper observes that CompDiff bugs need not crash, so stack traces
   are unavailable, and proposes comparing execution traces across
   binaries — hard in general because optimizations reshape control flow.
   Localization records the two disagreeing binaries as [Cdtrace] traces
   and aligns them in two stages:

   - the observable-event skeleton (executed print statements, each
     tagged with its enclosing function) is the one trace level
     optimizations must preserve.  The first event where the binaries
     disagree localizes the divergence to a function and an event index,
     the paper's bug-report granularity.  A [Prints]-level recording
     holds only this skeleton, and that is all the reducer and triage
     need;
   - a [Steps]-level recording also holds every instruction, and the
     aligner then searches between the last agreeing and the first
     disagreeing event for the first diverging write.

   Step indices of two different binaries are incomparable: optimization
   reshapes the instruction stream, so "step 123 of A" names nothing in
   B.  Inside the event window every recorded write is therefore
   projected to its (source line, kind, written value) -- register
   numbers and frame addresses are per-binary artifacts, but the values
   a correct optimization computes per source line are not.  The first
   index at which the two projected write sequences differ is found by
   bisection over prefix equality (the projections agree on a prefix and
   disagree ever after, by construction of "first"), and maps back to a
   concrete (step, pc, function, line, value) on each side: the first
   diverging instruction at the granularity the trace store can see. *)

(* running counters over both recording levels, surfaced via
   {!stats_json} (the "localize" member of the --stats object) *)
let stat_shallow = Atomic.make 0
let stat_deep = Atomic.make 0
let stat_probes = Atomic.make 0

let stats_json () : Cdutil.Json.t =
  Obj
    [ ("shallow", Int (Atomic.get stat_shallow));
      ("deep", Int (Atomic.get stat_deep));
      ("bisection_probes", Int (Atomic.get stat_probes)) ]

type probe = {
  pr_step : int;               (* step index in that binary's trace *)
  pr_fn : string;
  pr_pc : int;
  pr_line : int option;        (* via the pc -> line table *)
  pr_kind : [ `Reg | `Mem ];
  pr_value : string;           (* rendered written value *)
  pr_cmp : string;             (* comparison form: object ids erased *)
}

type deep_side = {
  ds_window : int * int;       (* [lo, hi) step window searched *)
  ds_at : probe option;        (* first diverging write, this side *)
}

type t = {
  level : Cdtrace.level;       (* what the two traces recorded *)
  traces : Cdtrace.t * Cdtrace.t;  (* side a, side b *)
  deep_a : deep_side;
  deep_b : deep_side;
  anchor_event : int;          (* last agreeing observable event; -1 none *)
  diverging_event : int option;(* first differing observable event *)
  before : Cdtrace.event list; (* shared events before it, up to 3 *)
  ev_a : Cdtrace.event option; (* the differing event on each side *)
  ev_b : Cdtrace.event option;
  probes : int;                (* bisection probes spent *)
  diff : string;               (* rendered value / event / status diff *)
}

let probe_key (p : probe) = (p.pr_line, p.pr_kind, p.pr_cmp)

(* Pointer object ids are per-binary allocation numbering, not
   semantics: two correct binaries laying frames out differently write
   "different" pointers everywhere.  Compare pointers by offset only. *)
let cmp_value (v : Cdvm.Value.t) : string =
  match v with
  | Cdvm.Value.Vptr p -> Printf.sprintf "<ptr+%d>" p.Cdvm.Value.off
  | v -> Cdvm.Value.to_string v

(* all writes of steps [lo, hi), projected to source coordinates *)
let project (tr : Cdtrace.t) ~(lo : int) ~(hi : int) : probe array =
  let out = ref [] in
  Cdtrace.iter tr (fun sv ->
      if sv.Cdtrace.sv_ix >= lo && sv.Cdtrace.sv_ix < hi then
        List.iter
          (fun it ->
            let add kind v =
              out :=
                {
                  pr_step = sv.Cdtrace.sv_ix;
                  pr_fn = Cdtrace.func_name tr sv.Cdtrace.sv_fi;
                  pr_pc = sv.Cdtrace.sv_pc;
                  pr_line =
                    Cdtrace.line_of tr ~fi:sv.Cdtrace.sv_fi ~pc:sv.Cdtrace.sv_pc;
                  pr_kind = kind;
                  pr_value = Cdvm.Value.to_string v;
                  pr_cmp = cmp_value v;
                }
                :: !out
            in
            match it with
            | Cdtrace.Wreg (_, v) -> add `Reg v
            | Cdtrace.Wmem (_, v) -> add `Mem v
            | Cdtrace.Call _ | Cdtrace.Ret | Cdtrace.Print _ -> ())
          sv.Cdtrace.sv_items);
  Array.of_list (List.rev !out)

(* length of the common (line, kind, value) prefix, by bisection *)
let common_prefix (pa : probe array) (pb : probe array) : int * int =
  let n = min (Array.length pa) (Array.length pb) in
  let prefix_eq k =
    let eq = ref true in
    let i = ref 0 in
    while !eq && !i < k do
      if probe_key pa.(!i) <> probe_key pb.(!i) then eq := false;
      incr i
    done;
    !eq
  in
  let probes = ref 0 in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    incr probes;
    if prefix_eq mid then lo := mid else hi := mid - 1
  done;
  (!lo, !probes)

(* the (fi, pc) of step [s], for synthesizing probes at event steps *)
let probe_at (tr : Cdtrace.t) (s : int) ~(value : string) : probe option =
  if s < 0 || s >= Cdtrace.length tr then None
  else begin
    let c = Cdtrace.cursor tr in
    Cdtrace.seek c s;
    match Cdtrace.peek c with
    | None -> None
    | Some (fi, pc, _) ->
      Some
        {
          pr_step = s;
          pr_fn = Cdtrace.func_name tr fi;
          pr_pc = pc;
          pr_line = Cdtrace.line_of tr ~fi ~pc;
          pr_kind = `Mem;
          pr_value = value;
          pr_cmp = value;
        }
  end

let probe_place (p : probe) : string =
  Printf.sprintf "step %d, %s@%d%s" p.pr_step p.pr_fn p.pr_pc
    (match p.pr_line with
    | Some l -> Printf.sprintf " (line %d)" l
    | None -> "")

(* The first pair of implementations whose observations disagree: the
   leftmost binary plus the leftmost one differing from it.  The pair is
   a function of the behaviour partition, so any reduction step that
   preserves the partition signature preserves it too. *)
let divergent_pair (oracle : Oracle.t)
    (obs : (string * Oracle.observation) list) : (string * string) option =
  match obs with
  | [] -> None
  | (first_name, first_obs) :: rest ->
    let c0 = Oracle.checksum oracle first_obs in
    Option.map
      (fun (other_name, _) -> (first_name, other_name))
      (List.find_opt (fun (_, o) -> Oracle.checksum oracle o <> c0) rest)

(* Localize between two traces of the same (program, input), both
   recorded at [level].  Total: some divergence explanation always comes
   back — a projected write mismatch, a differing observable event, or a
   status/output difference, in that order of preference.  A [Prints]
   recording has no writes, so its explanation starts at the events. *)
let of_traces ~(level : Cdtrace.level) (ta : Cdtrace.t) (tb : Cdtrace.t) : t =
  Atomic.incr
    (match level with Cdtrace.Prints -> stat_shallow | Cdtrace.Steps -> stat_deep);
  let ea = ta.Cdtrace.events and eb = tb.Cdtrace.events in
  let nshared = min (Array.length ea) (Array.length eb) in
  let same (x : Cdtrace.event) (y : Cdtrace.event) =
    x.Cdtrace.ev_fn = y.Cdtrace.ev_fn && x.Cdtrace.ev_text = y.Cdtrace.ev_text
  in
  let m = ref 0 in
  while !m < nshared && same ea.(!m) eb.(!m) do
    incr m
  done;
  let m = !m in
  let event_at ev = if m < Array.length ev then Some ev.(m) else None in
  let ev_a = event_at ea and ev_b = event_at eb in
  let diverging_event = if ev_a = None && ev_b = None then None else Some m in
  let window (tr : Cdtrace.t) ev (at : Cdtrace.event option) =
    let lo = if m > 0 then ev.(m - 1).Cdtrace.ev_step + 1 else 0 in
    let hi =
      match at with
      | Some e -> e.Cdtrace.ev_step + 1
      | None -> Cdtrace.length tr
    in
    (lo, max lo hi)
  in
  let wa = window ta ea ev_a and wb = window tb eb ev_b in
  let pa = project ta ~lo:(fst wa) ~hi:(snd wa) in
  let pb = project tb ~lo:(fst wb) ~hi:(snd wb) in
  let cut, probes = common_prefix pa pb in
  ignore (Atomic.fetch_and_add stat_probes probes);
  let at_a = if cut < Array.length pa then Some pa.(cut) else None in
  let at_b = if cut < Array.length pb then Some pb.(cut) else None in
  let at_a, at_b, diff =
    match (at_a, at_b) with
    | Some a, Some b ->
      let where =
        match (a.pr_line, b.pr_line) with
        | Some la, Some lb when la = lb -> Printf.sprintf "at line %d, " la
        | _ -> ""
      in
      ( at_a, at_b,
        Printf.sprintf "%s%s writes %s (%s); %s writes %s (%s)" where
          ta.Cdtrace.impl a.pr_value (probe_place a) tb.Cdtrace.impl b.pr_value
          (probe_place b) )
    | Some a, None ->
      ( at_a, None,
        Printf.sprintf "only %s still writes: %s (%s); %s performs no further write"
          ta.Cdtrace.impl a.pr_value (probe_place a) tb.Cdtrace.impl )
    | None, Some b ->
      ( None, at_b,
        Printf.sprintf "only %s still writes: %s (%s); %s performs no further write"
          tb.Cdtrace.impl b.pr_value (probe_place b) ta.Cdtrace.impl )
    | None, None -> (
      (* projections agree: explain by the event skeleton, then status *)
      match diverging_event with
      | Some d ->
        let side (at : Cdtrace.event option) tr =
          match at with
          | Some e ->
            (probe_at tr e.Cdtrace.ev_step
               ~value:(Printf.sprintf "%S" e.Cdtrace.ev_text),
             Printf.sprintf "[%s] %S" e.Cdtrace.ev_fn e.Cdtrace.ev_text)
          | None -> (None, Printf.sprintf "no further output from %s" tr.Cdtrace.impl)
        in
        let a, sa = side ev_a ta and b, sb = side ev_b tb in
        (a, b,
         Printf.sprintf "observable event #%d differs: %s vs %s" d sa sb)
      | None ->
        let sa = Cdvm.Trap.status_to_string ta.Cdtrace.status
        and sb = Cdvm.Trap.status_to_string tb.Cdtrace.status in
        ( None, None,
          if sa <> sb then
            Printf.sprintf "termination differs: %s (%s) vs %s (%s)"
              ta.Cdtrace.impl sa tb.Cdtrace.impl sb
          else
            Printf.sprintf
              "traces agree on writes, events and status%s; raw outputs %s"
              (if ta.Cdtrace.truncated || tb.Cdtrace.truncated then
                 " up to the recording cap"
               else "")
              (if ta.Cdtrace.stdout = tb.Cdtrace.stdout then "agree too"
               else "differ only after normalization") ))
  in
  {
    level;
    traces = (ta, tb);
    deep_a = { ds_window = wa; ds_at = at_a };
    deep_b = { ds_window = wb; ds_at = at_b };
    anchor_event = m - 1;
    diverging_event;
    before = Array.to_list (Array.sub ea (max 0 (m - 3)) (min m 3));
    ev_a;
    ev_b;
    probes;
    diff;
  }

(* the function the first differing event sits in, on either side;
   [None] when the event skeletons agree *)
let diverging_fn (l : t) : string option =
  match (l.ev_a, l.ev_b) with
  | Some e, _ | None, Some e -> Some e.Cdtrace.ev_fn
  | None, None -> None

(* Record one implementation's run of [input] at [level]: linked through
   the session's image cache and run on the image itself, as an observed
   run is more than a function of (image, input, fuel).  [limit]
   caps a [Steps] recording.  [u] is [profile]'s compile of [tp].  A
   [Steps] trace maps pcs to source lines, so it reads [u]'s line tables
   rebuilt against a fresh lowering ({!Cdcompiler.Pipeline.with_lines}):
   a session compiles without them, as nothing else reads them. *)
let record (session : Engine.Session.t) ~(level : Cdtrace.level) ~(fuel : int)
    ?limit (tp : Minic.Tast.tprogram)
    ((profile, u) : Cdcompiler.Policy.profile * Cdcompiler.Ir.unit_)
    ~(input : string) : Cdtrace.t =
  let l = Engine.Session.link session u in
  let lines =
    match level with
    | Cdtrace.Steps -> Some (Cdcompiler.Pipeline.with_lines profile tp u)
    | Cdtrace.Prints -> None
  in
  let observer, finish =
    Cdtrace.recorder ~level ?limit ?lines (Engine.Session.image l)
      ~impl:profile.Cdcompiler.Policy.pname ~input ~fuel
  in
  finish
    (Cdvm.Exec.run_linked
       ~config:{ Cdvm.Exec.default_config with Cdvm.Exec.input; fuel; observer }
       (Engine.Session.image l))

(* Pick the divergent pair of an oracle divergence, record both sides at
   [level] (through the shared pool) and localize between them.  Traces
   replay at the fuel the verdict was actually obtained at
   ({!Oracle.verdict_fuel}): a divergence found after escalation would
   otherwise localize as a spurious hang.  [None] when the observations
   hold no divergent pair. *)
let of_divergence ~(level : Cdtrace.level) ?limit (oracle : Oracle.t)
    (obs : (string * Oracle.observation) list) ~(input : string) : t option =
  match divergent_pair oracle obs with
  | None -> None
  | Some (name_a, name_b) -> (
    let compiled =
      List.map2
        (fun p (name, u) -> (name, (p, u)))
        (Oracle.profiles oracle) (Oracle.binaries oracle)
    in
    match (List.assoc_opt name_a compiled, List.assoc_opt name_b compiled) with
    | Some a, Some b -> (
      let fuel = Oracle.verdict_fuel oracle obs in
      match
        Cdutil.Pool.map
          (fun side ->
            record (Oracle.session oracle) ~level ~fuel ?limit
              (Oracle.program oracle) side ~input)
          [ a; b ]
      with
      | [ ta; tb ] -> Some (of_traces ~level ta tb)
      | _ -> assert false)
    | _ -> None)

(* [Prints]: the event report -- shared context, then the differing
   event on each side.  [Steps]: the event window and the first
   diverging instruction on each side. *)
let to_string (l : t) : string =
  let buf = Buffer.create 256 in
  let add fmt = Printf.bprintf buf fmt in
  let ta, tb = l.traces in
  let impl_a = ta.Cdtrace.impl and impl_b = tb.Cdtrace.impl in
  (match l.level with
  | Cdtrace.Prints -> (
    match l.diverging_event with
    | None ->
      add "outputs agree event-by-event; the divergence is in the termination status\n"
    | Some i -> (
      add "first divergent observation: event #%d (%s vs %s)\n" i impl_a impl_b;
      List.iter
        (fun (e : Cdtrace.event) ->
          add "  shared   [%s] %S\n" e.Cdtrace.ev_fn e.Cdtrace.ev_text)
        l.before;
      let only (e : Cdtrace.event) this other =
        add "  only %s observes [%s] %S; %s produced no further output\n" this
          e.Cdtrace.ev_fn e.Cdtrace.ev_text other
      in
      match (l.ev_a, l.ev_b) with
      | Some a, Some b when a.Cdtrace.ev_fn = b.Cdtrace.ev_fn ->
        add "  diverges in function '%s':\n" a.Cdtrace.ev_fn;
        add "    %-12s %S\n" impl_a a.Cdtrace.ev_text;
        add "    %-12s %S\n" impl_b b.Cdtrace.ev_text
      | Some a, Some b ->
        add "  control flow diverges: '%s' reaches %s, '%s' reaches %s\n"
          impl_a a.Cdtrace.ev_fn impl_b b.Cdtrace.ev_fn
      | Some a, None -> only a impl_a impl_b
      | None, Some b -> only b impl_b impl_a
      | None, None -> ()))
  | Cdtrace.Steps ->
    add "deep localization: %s vs %s\n" impl_a impl_b;
    add "  aligned on %d shared observable event%s%s\n" (l.anchor_event + 1)
      (if l.anchor_event = 0 then "" else "s")
      (match l.diverging_event with
      | Some e -> Printf.sprintf "; event #%d differs" e
      | None -> "; event skeletons agree");
    let side (tr : Cdtrace.t) (s : deep_side) =
      add "  %-12s %d steps%s, searched window [%d, %d)%s\n" tr.Cdtrace.impl
        (Cdtrace.length tr)
        (if tr.Cdtrace.truncated then " (truncated)" else "")
        (fst s.ds_window) (snd s.ds_window)
        (match s.ds_at with
        | Some p -> "\n               first diverging instruction: " ^ probe_place p
        | None -> "")
    in
    side ta l.deep_a;
    side tb l.deep_b;
    add "  diff (%d bisection probe%s): %s\n" l.probes
      (if l.probes = 1 then "" else "s")
      l.diff);
  Buffer.contents buf
