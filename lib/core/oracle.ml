(* The CompDiff oracle (Section 3.1).

   A program is compiled once per implementation; [check] runs every
   binary on one input, normalizes the outputs, and compares their
   MurmurHash3 checksums. Any disagreement is a divergence: for programs
   with deterministic output this is a true positive by construction.

   Timeouts follow RQ6: if only some binaries hang, the fuel budget is
   escalated (up to a cap) until the set of hanging binaries stabilizes;
   a residual mixed hang is reported as a divergence, an all-hang as
   agreement.

   Execution strategy (a verdict-preserving liberty with the paper):
   - compilation, linking and plain execution go through an
     {!Engine.Session} (a private caching-disabled one when the caller
     passes none), so shared sessions reuse compiled units, linked
     images and stored observations across oracles;
   - binaries with equal {!Binsig.signature} form equivalence classes;
     one representative per class is linked at oracle creation and
     executed through the session's cached-run path (linked executor
     on the running domain's arena), the observation fanned out to
     every member;
   - a fuel round is one task per class that runs in it, through the
     shared {!Cdutil.Pool} when [jobs > 1] and there are several: the
     task looks its inputs up in the session's observation store and
     executes the misses (one {!Engine.Session.run_batch}), normalizes
     every observation and checksums it once.  A verdict then compares one checksum per
     class, not per binary: every member of a class has the class's
     observation, so all binaries agree exactly when all classes do;
   - fuel escalation is incremental: only classes whose last observation
     hung are re-run at the higher budget.  This is observationally
     identical to re-running everything because the VM is deterministic
     at a fixed fuel and a terminating run consumes the same fuel under
     any sufficient budget — finished observations (including their
     [fuel_used]) can simply be reused.

   All of this lives in one escalation loop, [observe_classes], under
   [observe_batch] and [check_batch]; [observe] and [check] are their
   one-input case.  [check_stored] is not a second loop: it answers
   only a check whose first round the session's memory holds whole and
   that needs no second round, inline on the calling thread, and
   leaves everything else to [check_batch] (the serve daemon's reader
   thread uses it, DESIGN.md §13.2).

   [observe_naive]/[check_naive] keep the sequential, dedup-free
   reference semantics for cross-validation; they bypass the session
   entirely (tree-walking interpreter on the uncached units), so
   comparing [check] against [check_naive] validates dedup, pooling,
   incremental escalation, the linked executor and the session's cached
   path against a fresh one. *)

open Cdcompiler

type observation = {
  output : string;          (* normalized stdout *)
  status : Cdvm.Trap.status;
  fuel_used : int;
}

type verdict =
  | Agree of observation
  | Diverge of (string * observation) list
      (* every implementation's observation, in implementation order *)

type stats = {
  checks : int;            (* oracle checks (inputs judged) *)
  vm_execs : int;          (* observations requested from the engine;
                              actual VM executions when the session does
                              not cache (hits replay from the store) *)
  dedup_saved : int;       (* executions avoided by binary dedup *)
  escalation_saved : int;  (* executions avoided by incremental escalation *)
}

(* The atomics behind [stats]; oracles created with one set count into
   it together *)
type counters = {
  c_checks : int Atomic.t;
  c_execs : int Atomic.t;
  c_dedup_saved : int Atomic.t;
  c_escal_saved : int Atomic.t;
}

let counters () =
  { c_checks = Atomic.make 0; c_execs = Atomic.make 0;
    c_dedup_saved = Atomic.make 0; c_escal_saved = Atomic.make 0 }

type t = {
  profiles : Policy.profile list;  (* what [binaries] were compiled with *)
  program : Minic.Tast.tprogram;   (* what [binaries] were compiled from *)
  binaries : (string * Ir.unit_) list;
  session : Engine.Session.t;
      (* owns linking and plain execution; caching-disabled when the
         creator passed no session of their own *)
  normalize : Normalize.filter;
  base_fuel : int;
  max_fuel : int;
  compare_status : bool;    (* ablation knob: include exit/trap status *)
  jobs : int;
  nbinaries : int;
  class_of : int array;        (* binary index -> class index *)
  class_repr : Ir.unit_ array; (* class index -> representative binary *)
  class_size : int array;      (* class index -> number of members *)
  class_linked : Engine.Session.linked array;
      (* linked once per class through the session (image cache +
         observation store) *)
  counters : counters;
}

(* Partition the binaries into behavioral equivalence classes by their
   canonical signature (exact string equality: no hash-collision risk). *)
let build_classes session (binaries : (string * Ir.unit_) list) =
  let class_of = Array.make (List.length binaries) 0 in
  let table : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let reprs = ref [] and nclasses = ref 0 in
  List.iteri
    (fun i (_, u) ->
      let key = Binsig.signature ?memo:(Engine.Session.facts_memo session u) u in
      match Hashtbl.find_opt table key with
      | Some ci -> class_of.(i) <- ci
      | None ->
          let ci = !nclasses in
          incr nclasses;
          Hashtbl.add table key ci;
          reprs := u :: !reprs;
          class_of.(i) <- ci)
    binaries;
  let repr = Array.of_list (List.rev !reprs) in
  let size = Array.make (max 1 !nclasses) 0 in
  Array.iter (fun ci -> size.(ci) <- size.(ci) + 1) class_of;
  (class_of, repr, size)

(* oracles created without an explicit session still route linking and
   execution through the engine, just without caching *)
let private_session () = Engine.Session.create ~cache_mb:0 ()

let create ?session ?(profiles = Profiles.all) ?(normalize = Normalize.identity)
    ?(fuel = 200_000) ?(max_fuel = 3_200_000) ?(compare_status = true)
    ?(jobs = Cdutil.Pool.default_jobs ())
    ?(counters = counters ()) (tp : Minic.Tast.tprogram) : t =
  let session = match session with Some s -> s | None -> private_session () in
  let binaries = Engine.Session.compile_profiles ~jobs session profiles tp in
  let class_of, class_repr, class_size = build_classes session binaries in
  (* link each class representative once through the session; every
     execution of the class runs the image (the reference interpreter
     stays on [observe_naive]) *)
  let class_linked = Array.map (Engine.Session.link session) class_repr in
  {
    profiles;
    program = tp;
    binaries;
    session;
    normalize;
    base_fuel = fuel;
    max_fuel;
    compare_status;
    jobs;
    nbinaries = List.length binaries;
    class_of;
    class_repr;
    class_size;
    class_linked;
    counters;
  }

(* Same settings and session, another program: compiles go through the
   session, so units shared with earlier oracles come from its cache. *)
let with_program t ?names (tp : Minic.Tast.tprogram) : t =
  let profiles =
    match names with
    | None -> t.profiles
    | Some names ->
        List.map
          (fun n ->
            match
              List.find_opt (fun (p : Policy.profile) -> p.Policy.pname = n)
                t.profiles
            with
            | Some p -> p
            | None -> invalid_arg ("Oracle.with_program: no profile " ^ n))
          names
  in
  create ~session:t.session ~profiles ~normalize:t.normalize ~fuel:t.base_fuel
    ~max_fuel:t.max_fuel ~compare_status:t.compare_status ~jobs:t.jobs tp

let names t = List.map fst t.binaries
let binaries t = t.binaries
let profiles t = t.profiles
let program t = t.program
let session t = t.session
let jobs t = t.jobs
let base_fuel t = t.base_fuel
let normalize t = t.normalize

(* The budget needed to replay a set of observations faithfully: a
   terminating run behaves identically under any budget >= its
   [fuel_used], and a hang's [fuel_used] equals the (escalated) budget
   it was observed at.  Localization and reduction re-executions must
   use this, not the base fuel: a divergence found after escalation
   replayed at base fuel manufactures spurious hangs. *)
let verdict_fuel t (obs : (string * observation) list) : int =
  List.fold_left (fun acc (_, o) -> max acc o.fuel_used) t.base_fuel obs
let class_count t = Array.length t.class_repr
let classes t = Array.copy t.class_of
let class_images t = Array.map Engine.Session.image t.class_linked

let counted c =
  {
    checks = Atomic.get c.c_checks;
    vm_execs = Atomic.get c.c_execs;
    dedup_saved = Atomic.get c.c_dedup_saved;
    escalation_saved = Atomic.get c.c_escal_saved;
  }

let stats t = counted t.counters

let reset_stats { counters = c; _ } =
  List.iter
    (fun a -> Atomic.set a 0)
    [ c.c_checks; c.c_execs; c.c_dedup_saved; c.c_escal_saved ]

let sum_stats (ss : stats list) : stats =
  List.fold_left
    (fun a s ->
      {
        checks = a.checks + s.checks;
        vm_execs = a.vm_execs + s.vm_execs;
        dedup_saved = a.dedup_saved + s.dedup_saved;
        escalation_saved = a.escalation_saved + s.escalation_saved;
      })
    { checks = 0; vm_execs = 0; dedup_saved = 0; escalation_saved = 0 }
    ss

let stats_json (s : stats) : Cdutil.Json.t =
  Obj
    [ ("checks", Int s.checks); ("vm_execs", Int s.vm_execs);
      ("dedup_saved", Int s.dedup_saved);
      ("escalation_saved", Int s.escalation_saved) ]

let observation_of t (r : Cdvm.Exec.result) : observation =
  {
    output = t.normalize r.Cdvm.Exec.stdout;
    status = r.Cdvm.Exec.status;
    fuel_used = r.Cdvm.Exec.fuel_used;
  }

let run_one t ~fuel ~input (u : Ir.unit_) : observation =
  observation_of t
    (Cdvm.Exec.run
       ~config:{ Cdvm.Exec.default_config with Cdvm.Exec.input; fuel }
       u)

(* checksum of what CompDiff compares for one observation; hashed
   incrementally so the hot path never concatenates *)
let checksum t (o : observation) : int32 =
  let status_part = if t.compare_status then Cdvm.Trap.signature o.status else "" in
  Cdutil.Murmur3.hash32_parts [ o.output; "\x00"; status_part ]

(* Sequential, dedup-free reference: run every binary on [input],
   escalating fuel while the hang set is mixed. *)
let observe_naive t ~(input : string) : (string * observation) list =
  let rec attempt fuel =
    let obs = List.map (fun (n, u) -> (n, run_one t ~fuel ~input u)) t.binaries in
    let hangs, finished =
      List.partition (fun (_, o) -> o.status = Cdvm.Trap.Hang) obs
    in
    if hangs = [] || finished = [] then obs
    else if fuel >= t.max_fuel then obs
    else attempt (fuel * 4)
  in
  attempt t.base_fuel

(* stats, against the naive oracle's [nbinaries] runs per input and
   round: [execs] runs covering [covered] binaries for [inputs] inputs,
   so dedup saved the members beyond each representative and
   incremental escalation the binaries not re-run at all *)
let account t ~inputs ~execs ~covered =
  ignore (Atomic.fetch_and_add t.counters.c_execs execs);
  ignore (Atomic.fetch_and_add t.counters.c_dedup_saved (covered - execs));
  ignore (Atomic.fetch_and_add t.counters.c_escal_saved (inputs * t.nbinaries - covered))

(* [class_obs.(ci).(k)] is input [k]'s latest observation by class [ci].
   The classes input [k] re-runs after a round at [fuel]: its hung
   ones, unless everything terminated, everything hung (an all-hang,
   only possible in the first round, counts as agreement) or the fuel
   cap is reached *)
let reruns_of t (class_obs : observation array array) fuel k =
  if fuel >= t.max_fuel then []
  else begin
    let hung = ref [] and hung_members = ref 0 in
    for ci = Array.length class_obs - 1 downto 0 do
      match class_obs.(ci).(k) with
      | { status = Cdvm.Trap.Hang; _ } ->
          hung := ci :: !hung;
          hung_members := !hung_members + t.class_size.(ci)
      | _ -> ()
    done;
    if !hung_members = t.nbinaries then [] else !hung
  end

(* input [k]'s observations, fanned out from the classes to every
   binary in implementation order *)
let fan_out t (class_obs : observation array array) k =
  List.mapi (fun i (name, _) -> (name, class_obs.(t.class_of.(i)).(k))) t.binaries

(* Per class [ci] and input [k]: the latest observation and its
   {!checksum}, which every member of the class shares. *)
type classes = { obs : observation array array; sums : int32 array array }

(* Input [k]'s verdict from its per-class checksums: all binaries agree
   exactly when all classes do, as every binary has its class's
   observation.  [Agree] carries binary 0's observation, [Diverge]
   every binary's. *)
let verdict_of_classes t (c : classes) k : verdict =
  if t.nbinaries = 0 then invalid_arg "Oracle: no binaries";
  let s0 = c.sums.(0).(k) in
  if Array.for_all (fun row -> Int32.equal row.(k) s0) c.sums then
    Agree c.obs.(t.class_of.(0)).(k)
  else Diverge (fan_out t c.obs k)

(* The escalation loop: deduped, pooled, incrementally escalating
   observation of many inputs.  Every round runs, per class, the inputs
   that still need the class at the current fuel level as ONE task:
   one session batch ({!Engine.Session.run_batch}: the store lookups,
   then the misses on one arena acquisition, amortized reset), then
   each observation normalized and checksummed.
   The first round's set is every class for every input.
   Escalation is level-synchronous — every input walks the same base,
   ×4, ×16, … fuel sequence as [observe_naive], dropping out when its
   hang set stabilizes — so input [k]'s observations, fanned out, equal
   [observe_naive t ~input:inputs.(k)]. *)
let observe_classes t ~(inputs : string array) : classes =
  let ninputs = Array.length inputs in
  ignore (Atomic.fetch_and_add t.counters.c_checks ninputs);
  let nclasses = Array.length t.class_repr in
  (* the first round overwrites every placeholder *)
  let c =
    {
      obs =
        Array.make_matrix nclasses ninputs
          { output = ""; status = Cdvm.Trap.Hang; fuel_used = 0 };
      sums = Array.make_matrix nclasses ninputs 0l;
    }
  in
  (* run every class on the inputs that [pending] lists it for *)
  let run_round fuel (pending : int list array) =
    (* transpose: which inputs run each class? *)
    let by_class = Array.make nclasses [] in
    for k = ninputs - 1 downto 0 do
      let pend = pending.(k) in
      if not (List.is_empty pend) then begin
        List.iter (fun ci -> by_class.(ci) <- k :: by_class.(ci)) pend;
        account t ~inputs:1 ~execs:(List.length pend)
          ~covered:(List.fold_left (fun a ci -> a + t.class_size.(ci)) 0 pend)
      end
    done;
    (* a task writes only its own class's rows *)
    let run_class (ci, ks) =
      let ins = Array.map (fun k -> inputs.(k)) ks in
      Array.iteri
        (fun j r ->
          let o = observation_of t r in
          c.obs.(ci).(ks.(j)) <- o;
          c.sums.(ci).(ks.(j)) <- checksum t o)
        (Engine.Session.run_batch t.session t.class_linked.(ci) ~inputs:ins ~fuel)
    in
    let tasks = ref [] in
    for ci = nclasses - 1 downto 0 do
      if not (List.is_empty by_class.(ci)) then
        tasks := (ci, Array.of_list by_class.(ci)) :: !tasks
    done;
    if t.jobs > 1 && List.compare_length_with !tasks 1 > 0 then
      ignore (Cdutil.Pool.map run_class !tasks)
    else List.iter run_class !tasks
  in
  let rec escalate fuel pending =
    if not (Array.for_all List.is_empty pending) then begin
      run_round fuel pending;
      escalate (fuel * 4) (Array.init ninputs (reruns_of t c.obs fuel))
    end
  in
  escalate t.base_fuel (Array.make ninputs (List.init nclasses Fun.id));
  c

let observe_batch t ~(inputs : string array) :
    (string * observation) list array =
  let c = observe_classes t ~inputs in
  Array.init (Array.length inputs) (fan_out t c.obs)

let verdict_of_observations t (obs : (string * observation) list) : verdict =
  match obs with
  | [] -> invalid_arg "Oracle: no binaries"
  | (_, first) :: rest ->
    let c0 = checksum t first in
    if List.for_all (fun (_, o) -> checksum t o = c0) rest then Agree first
    else Diverge obs

(* [check_batch]'s first round answered from memory alone: every class's
   base-fuel observation of every input must be in the session's
   in-memory store ({!Engine.Session.probe}), and no input may need a
   second round.  Then the verdicts are [check_batch]'s, compared per
   class the same way, and the counters grow by what its all-hit round
   adds: one store hit per class and input, [nclasses] observations and
   the dedup savings per input.  Otherwise nothing is counted, so a
   caller that falls back to [check_batch] counts every lookup once. *)
let check_stored t ~(inputs : string array) : verdict array option =
  let fuel = t.base_fuel in
  let nclasses = Array.length t.class_repr in
  let rec probe ci acc =
    if ci < 0 then Some (Array.of_list acc)
    else
      match
        Engine.Session.probe t.session t.class_linked.(ci) ~inputs ~fuel
      with
      | None -> None
      | Some rs -> probe (ci - 1) (Array.map (observation_of t) rs :: acc)
  in
  match probe (nclasses - 1) [] with
  | None -> None
  | Some class_obs ->
      let ninputs = Array.length inputs in
      if Seq.exists (fun k -> reruns_of t class_obs fuel k <> [])
           (Seq.init ninputs Fun.id)
      then None
      else begin
        ignore (Atomic.fetch_and_add t.counters.c_checks ninputs);
        account t ~inputs:ninputs ~execs:(nclasses * ninputs)
          ~covered:(t.nbinaries * ninputs);
        Engine.Session.count_hits t.session (nclasses * ninputs);
        let c =
          { obs = class_obs; sums = Array.map (Array.map (checksum t)) class_obs }
        in
        Some (Array.init ninputs (verdict_of_classes t c))
      end

let check_naive t ~(input : string) : verdict =
  verdict_of_observations t (observe_naive t ~input)

let check_batch t ~(inputs : string array) : verdict array =
  let c = observe_classes t ~inputs in
  Array.init (Array.length inputs) (verdict_of_classes t c)

(* The cross-validation of the fast path: the first input whose batched
   verdict differs from the sequential reference's. *)
let naive_mismatch t ~(inputs : string list) : string option =
  let fast = check_batch t ~inputs:(Array.of_list inputs) in
  List.find_mapi
    (fun i input -> if fast.(i) <> check_naive t ~input then Some input else None)
    inputs

(* a single input is the one-input batch: one escalation loop *)
let observe t ~(input : string) : (string * observation) list =
  (observe_batch t ~inputs:[| input |]).(0)

let check t ~(input : string) : verdict =
  (check_batch t ~inputs:[| input |]).(0)

let is_divergence = function Diverge _ -> true | Agree _ -> false

(* Group implementations by observed behaviour: the equivalence classes
   that drive the subset studies of Figures 1 and 2. Returns a class id
   per implementation, in implementation order. *)
let partition t (obs : (string * observation) list) : int array =
  let table : (int32, int) Hashtbl.t = Hashtbl.create 8 in
  let next = ref 0 in
  Array.of_list
    (List.map
       (fun (_, o) ->
         let c = checksum t o in
         match Hashtbl.find_opt table c with
         | Some id -> id
         | None ->
           let id = !next in
           incr next;
           Hashtbl.add table c id;
           id)
       obs)

(* human-readable divergence report, in the paper's bug-report format:
   input, reproducing configurations, divergent outputs *)
let report_of_rows ~(input : string) (rows : (string * string * string) list) :
    string =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "=== CompDiff divergence report ===\n";
  Buffer.add_string buf
    (Printf.sprintf "input (%d bytes): %S\n" (String.length input) input);
  let by_output = Hashtbl.create 8 in
  List.iter
    (fun (name, output, status) ->
      let key = (output, status) in
      let cur = Option.value ~default:[] (Hashtbl.find_opt by_output key) in
      Hashtbl.replace by_output key (name :: cur))
    rows;
  Hashtbl.iter
    (fun (out, status) names ->
      Buffer.add_string buf
        (Printf.sprintf "--- %s (status %s):\n%s\n"
           (String.concat ", " (List.rev names))
           status out))
    by_output;
  Buffer.contents buf

let report_to_string ~(input : string) (obs : (string * observation) list) : string =
  report_of_rows ~input
    (List.map
       (fun (name, o) -> (name, o.output, Cdvm.Trap.status_to_string o.status))
       obs)
