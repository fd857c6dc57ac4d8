(* Per-layer counters of a traced run, and the final per-layer metric
   set.  Counts come from the stats the program already exposes
   ({!Compdiff.Oracle.stats}, {!Engine.Session.stats},
   {!Serve.Scheduler.sched_stats}) or from values the benchmark's own
   calls return. *)

(* only the main thread counts *)
let counters : (string, float) Hashtbl.t = Hashtbl.create 64

let add name v =
  Hashtbl.replace counters name
    (v +. Option.value ~default:0. (Hashtbl.find_opt counters name))

let addi name v = add name (float_of_int v)
let get name = Option.value ~default:0. (Hashtbl.find_opt counters name)

let add_oracle (s : Compdiff.Oracle.stats) =
  addi "core.checks" s.Compdiff.Oracle.checks;
  addi "core.vm_execs" s.Compdiff.Oracle.vm_execs;
  addi "core.dedup_saved" s.Compdiff.Oracle.dedup_saved;
  addi "core.escalation_saved" s.Compdiff.Oracle.escalation_saved

(* One session's lifetime counters; call once per session, when its
   work is done. *)
let add_session (st : Engine.Session.stats) =
  let cache prefix (c : Engine.Session.cache_stats) =
    addi (prefix ^ ".hits") c.Engine.Session.hits;
    addi (prefix ^ ".misses") c.Engine.Session.misses;
    addi "engine.evictions" c.Engine.Session.evictions;
    addi "engine.cache_bytes.sum" c.Engine.Session.bytes
  in
  cache "engine.unit" st.Engine.Session.units;
  cache "engine.image" st.Engine.Session.images;
  cache "engine.obs" st.Engine.Session.observations;
  add "engine.key_s" st.Engine.Session.key_seconds;
  addi "engine.sessions" 1

let ir_instrs (u : Cdcompiler.Ir.unit_) =
  List.fold_left
    (fun a (_, (f : Cdcompiler.Ir.ifunc)) ->
      a + Array.length f.Cdcompiler.Ir.code)
    0 u.Cdcompiler.Ir.funcs

(* A compile through the session, spanned per profile. *)
let compile session (p : Cdcompiler.Policy.profile) tp =
  let u =
    Span.with_ (Metrics.compile_span p.Cdcompiler.Policy.pname) (fun () ->
        Engine.Session.compile session p tp)
  in
  addi "compiler.compiles" 1;
  addi "compiler.ir_instrs" (ir_instrs u);
  u

let link session u =
  Span.with_ "vm.link" (fun () -> ignore (Engine.Session.link session u))

let reset () =
  Hashtbl.reset counters;
  Span.reset ()

let ratio a b = if b > 0. then a /. b else 0.

(* The per-layer metric set: span self times and counts per traced pass
   (a pass is the workload's whole item set once), ratios over the run. *)
let finish ~passes ~overhead ~(selfs : (Span.t * float) list) :
    (string * float) list =
  let per_pass v = v /. float_of_int (max 1 passes) in
  let by_name = Span.self_by_name selfs in
  let self name = Option.value ~default:0. (Hashtbl.find_opt by_name name) in
  let times =
    List.map (fun (m, span) -> (m, per_pass (self span))) Metrics.span_times
  in
  let root =
    Common.sum
      (List.filter_map
         (fun ((s : Span.t), _) ->
           if s.Span.parent = 0 then Some (s.Span.stop -. s.Span.start) else None)
         selfs)
  and glue = self "bench.item" in
  let hit prefix =
    ratio (get (prefix ^ ".hits")) (get (prefix ^ ".hits") +. get (prefix ^ ".misses"))
  in
  let naive =
    get "core.vm_execs" +. get "core.dedup_saved" +. get "core.escalation_saved"
  in
  let derived =
    [
      ( "compiler.compile_s",
        Common.sum
          (List.map
             (fun p -> per_pass (self (Metrics.compile_span p)))
             Metrics.profile_names) );
      ("vm.ns_per_instr", ratio (self "vm.exec" *. 1e9) (get "vm.instrs"));
      ("core.dedup_ratio", ratio (get "core.dedup_saved") naive);
      ("engine.unit_hit_rate", hit "engine.unit");
      ("engine.image_hit_rate", hit "engine.image");
      ("engine.obs_hit_rate", hit "engine.obs");
      ("engine.cache_bytes", ratio (get "engine.cache_bytes.sum") (get "engine.sessions"));
      ("trace.overhead", overhead);
      ("trace.coverage", ratio (root -. glue) root);
      ("trace.spans", per_pass (float_of_int (List.length selfs)));
    ]
  in
  (* the remaining counts are per pass; serve.* values are set whole by
     the serve workload, whose traced phase is its one pass *)
  List.map
    (fun (m, _) ->
      match List.assoc_opt m times with
      | Some v -> (m, v)
      | None -> (
          match List.assoc_opt m derived with
          | Some v -> (m, v)
          | None -> (m, per_pass (get m))))
    Metrics.per_layer

(* The result of a traced run: the spans written out when asked for, and
   the per-layer metrics. *)
let traced_result (opts : Common.opts) ledger ~passes ~overhead : Common.result =
  let selfs = Span.self_times (Span.spans ()) in
  Option.iter (fun f -> Span.write_jsonl f selfs) opts.Common.trace_out;
  { Common.ledger; metrics = finish ~passes ~overhead ~selfs }
