(* Every metric the benchmark prints, in print order, with its unit.
   BENCHMARK.json lists the same names; main refuses to print a result
   whose metric set differs from these lists. *)

(* Printed by every untraced run.  An item is one fuzzer execution
   (fuzz), one reduced report (report), one Juliet test (juliet) or one
   request (serve); a task, whose latency is reported, is one target
   campaign on fuzz and one item elsewhere. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("throughput_per_s", "items/s");
    ("checks_per_s", "checks/s");
    ("latency_p50_ms", "ms");
    ("latency_p95_ms", "ms");
    ("findings", "count");
    ("peak_heap_mb", "MiB");
  ]

let profile_names =
  List.map
    (fun (p : Cdcompiler.Policy.profile) -> p.Cdcompiler.Policy.pname)
    Cdcompiler.Profiles.extended_with_buggy

let static_tools = [ "coverity"; "cppcheck"; "infer"; "unstable" ]
let compile_span p = "compiler.compile." ^ p

(* Self time, per traced pass, of the spans of one name: metric name,
   span name.  A span's self time is its duration minus the time its
   child spans cover, so over a run these sum to the traced wall time. *)
let span_times =
  [
    ("minic.frontend_s", "minic.frontend");
    ("vm.link_s", "vm.link");
    ("vm.exec_s", "vm.exec");
    ("core.oracle_create_s", "core.oracle_create");
    ("core.check_s", "core.check");
    ("core.compare_s", "core.compare");
    ("core.triage_s", "core.triage");
    ("core.reduce_self_s", "core.reduce");
    ("trace.deep_s", "trace.deep");
    ("fuzz.loop_self_s", "fuzz.loop");
    ("sanitizers.build_s", "sanitizers.build");
    ("sanitizers.probe_s", "sanitizers.probe");
    ("serve.request_s", "serve.request");
    ("bench.glue_s", "bench.item");
  ]
  @ List.map (fun p -> ("compiler.compile_s." ^ p, compile_span p)) profile_names
  @ List.map (fun t -> ("staticcheck." ^ t ^ "_s", "staticcheck." ^ t)) static_tools

(* Printed by every traced run, grouped by layer; 0 where a workload
   never enters the layer. *)
let per_layer =
  [ ("minic.frontend_s", "s"); ("compiler.compile_s", "s") ]
  @ List.map (fun p -> ("compiler.compile_s." ^ p, "s")) profile_names
  @ [
      ("compiler.compiles", "count");
      ("compiler.ir_instrs", "count");
      ("vm.link_s", "s");
      ("vm.exec_s", "s");
      ("vm.execs", "count");
      ("vm.instrs", "count");
      ("vm.ns_per_instr", "ns");
      ("core.oracle_create_s", "s");
      ("core.check_s", "s");
      ("core.compare_s", "s");
      ("core.triage_s", "s");
      ("core.reduce_self_s", "s");
      ("core.checks", "count");
      ("core.vm_execs", "count");
      ("core.dedup_saved", "count");
      ("core.escalation_saved", "count");
      ("core.dedup_ratio", "ratio");
      ("core.reduce_checks", "count");
      ("core.reduced_bytes", "bytes");
      ("core.reduced_stmts", "count");
      ("trace.deep_s", "s");
      ("engine.unit_hit_rate", "ratio");
      ("engine.image_hit_rate", "ratio");
      ("engine.obs_hit_rate", "ratio");
      ("engine.evictions", "count");
      ("engine.key_s", "s");
      ("engine.cache_bytes", "bytes");
      ("fuzz.loop_self_s", "s");
      ("fuzz.queue_entries", "count");
      ("fuzz.edges", "count");
      ("sanitizers.build_s", "s");
      ("sanitizers.probe_s", "s");
    ]
  @ List.map (fun t -> ("staticcheck." ^ t ^ "_s", "s")) static_tools
  @ [
      ("serve.request_s", "s");
      ("serve.codec_us", "us");
      ("serve.service_ms", "ms");
      ("serve.wait_ms.p50", "ms");
      ("serve.wait_ms.p99", "ms");
      ("serve.hot_p50_ms", "ms");
      ("serve.cold_p50_ms", "ms");
      ("serve.flights", "count");
      ("serve.joined", "count");
      ("serve.batching_ratio", "ratio");
      ("serve.shed", "count");
      ("serve.warm_oracles", "count");
      ("bench.glue_s", "s");
      ("trace.overhead", "ratio");
      ("trace.coverage", "ratio");
      ("trace.spans", "count");
    ]

let expected ~trace = if trace then per_layer else end_to_end
