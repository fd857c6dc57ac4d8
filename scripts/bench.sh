#!/bin/sh
# Oracle + VM benchmarks: differential-oracle throughput (checks/sec)
# sequential-naive vs pooled+deduped+incremental plus the Juliet dedup
# ratios (BENCH_oracle.json), raw executor throughput of the
# tree-walking reference vs the linked-image executor with persistent
# arenas (BENCH_vm.json), and metamorphic twin-analysis throughput
# batched vs naive (BENCH_metacheck.json), and serve-daemon request
# throughput under concurrent clients vs the process-per-request
# baseline (BENCH_serve.json). All JSONs land in the repo root.
#
#   scripts/bench.sh            # oracle + vm + engine + serve + metacheck
#   scripts/bench.sh all        # every bench section (tables + figures)
#
# The JSONs report execs/sec, the dedup/escalation savings, the
# speedups, and a verdicts_match cross-validation bit. Each bench aborts
# if an optimized path ever disagrees with its naive reference.

set -eu

cd "$(dirname "$0")/.."

echo "== dune build"
dune build

if [ "${1:-oracle}" = "all" ]; then
  echo "== full bench suite"
  dune exec bench/main.exe
else
  echo "== oracle + vm + trace + engine + serve + metacheck + gen benches (write BENCH_*.json)"
  dune exec bench/main.exe -- oracle vm trace engine serve metacheck gen
fi

echo "== BENCH_oracle.json"
cat BENCH_oracle.json
echo "== BENCH_vm.json"
cat BENCH_vm.json
echo "== BENCH_trace.json"
cat BENCH_trace.json
echo "== BENCH_engine.json"
cat BENCH_engine.json
echo "== BENCH_serve.json"
cat BENCH_serve.json
echo "== BENCH_metacheck.json"
cat BENCH_metacheck.json
echo "== BENCH_gen.json"
cat BENCH_gen.json

# Regression gate: the linked-image executor must stay at least 2x the
# tree-walking reference, every optimized path must agree with its naive
# reference, and the restart-warm engine pass must actually be served
# from the disk store.  A bench run that "succeeds" below these floors
# is a perf regression, so fail loudly.
echo "== regression gate"
gate_status=0

vm_speedup=$(sed -n 's/^ *"speedup": \([0-9.]*\),*$/\1/p' BENCH_vm.json | head -1)
vm_match=$(sed -n 's/^ *"verdicts_match": \(true\|false\).*/\1/p' BENCH_vm.json | head -1)
if [ -z "$vm_speedup" ] || ! awk "BEGIN{exit !($vm_speedup >= 2.0)}"; then
  echo "FAIL gate: vm speedup ${vm_speedup:-?}x < 2.0x"
  gate_status=1
else
  echo "ok   gate: vm speedup ${vm_speedup}x >= 2.0x"
fi
if [ "$vm_match" != "true" ]; then
  echo "FAIL gate: vm verdicts_match is ${vm_match:-missing}"
  gate_status=1
else
  echo "ok   gate: vm verdicts match"
fi

# Trace gates: the Silent observer level must not tax the oracle's hot
# path (>= 95% of BENCH_vm's linked execs/sec), Steps recording must
# stay within the 8x slowdown ceiling (steps_gate in
# bench/trace_bench.ml decides steps_slowdown_target_met), and every
# recorded run must return the exact result the silent run did
# (observation never perturbs).
trace_silent=$(sed -n 's/.*"silent": { "seconds": [0-9.]*, "execs_per_sec": \([0-9.]*\).*/\1/p' BENCH_trace.json | head -1)
vm_linked=$(sed -n 's/.*"linked": { "seconds": [0-9.]*, "execs_per_sec": \([0-9.]*\).*/\1/p' BENCH_vm.json | head -1)
trace_slowdown=$(sed -n 's/^ *"steps_slowdown": \([0-9.]*\),*$/\1/p' BENCH_trace.json | head -1)
trace_target=$(sed -n 's/^ *"steps_slowdown_target_met": \(true\|false\).*/\1/p' BENCH_trace.json | head -1)
trace_replay=$(sed -n 's/^ *"replay_match": \(true\|false\).*/\1/p' BENCH_trace.json | head -1)
if [ -z "$trace_silent" ] || [ -z "$vm_linked" ] ||
   ! awk "BEGIN{exit !($trace_silent >= 0.95 * $vm_linked)}"; then
  echo "FAIL gate: silent-observer throughput ${trace_silent:-?} < 95% of linked ${vm_linked:-?}"
  gate_status=1
else
  echo "ok   gate: silent observer keeps linked throughput (${trace_silent} vs ${vm_linked} execs/s)"
fi
if [ "$trace_target" != "true" ]; then
  echo "FAIL gate: steps recording slowdown ${trace_slowdown:-?}x > 8x"
  gate_status=1
else
  echo "ok   gate: steps recording slowdown ${trace_slowdown}x <= 8x"
fi
if [ "$trace_replay" != "true" ]; then
  echo "FAIL gate: trace replay_match is ${trace_replay:-missing}"
  gate_status=1
else
  echo "ok   gate: recorded runs byte-identical to silent runs"
fi

eng_match=$(sed -n 's/^ *"verdicts_match": \(true\|false\).*/\1/p' BENCH_engine.json | head -1)
eng_disk_hits=$(sed -n 's/.*"restart_warm": {.*"disk_hits": \([0-9]*\),.*/\1/p' BENCH_engine.json | head -1)
if [ "$eng_match" != "true" ]; then
  echo "FAIL gate: engine verdicts_match is ${eng_match:-missing}"
  gate_status=1
else
  echo "ok   gate: engine verdicts match"
fi
if [ -z "$eng_disk_hits" ] || [ "$eng_disk_hits" -eq 0 ]; then
  echo "FAIL gate: engine restart-warm pass had ${eng_disk_hits:-no} disk hits"
  gate_status=1
else
  echo "ok   gate: engine restart-warm served $eng_disk_hits disk hits"
fi

serve_target=$(sed -n 's/^ *"speedup_target_met": \(true\|false\).*/\1/p' BENCH_serve.json | head -1)
serve_match=$(sed -n 's/^ *"verdicts_match": \(true\|false\).*/\1/p' BENCH_serve.json | head -1)
serve_speedup=$(sed -n 's/^ *"speedup": \([0-9.]*\),*$/\1/p' BENCH_serve.json | head -1)
if [ "$serve_target" != "true" ]; then
  echo "FAIL gate: serve 4-client speedup ${serve_speedup:-?}x < 3.0x over process-per-request"
  gate_status=1
else
  echo "ok   gate: serve 4-client speedup ${serve_speedup}x >= 3.0x"
fi
if [ "$serve_match" != "true" ]; then
  echo "FAIL gate: serve verdicts_match is ${serve_match:-missing}"
  gate_status=1
else
  echo "ok   gate: serve daemon verdicts match the direct oracle"
fi

# Generator gates: emission throughput (generate + print + re-typecheck)
# must clear 500 programs/sec, no clean twin may diverge (the soundness
# argument), the measured oracle FN rate must be reported, and the
# session oracle must agree with the sequential naive one on the corpus.
gen_target=$(sed -n 's/^ *"per_sec_target_met": \(true\|false\).*/\1/p' BENCH_gen.json | head -1)
gen_per_sec=$(sed -n 's/^ *"per_sec": \([0-9.]*\),*$/\1/p' BENCH_gen.json | head -1)
gen_clean=$(sed -n 's/^ *"clean_divergences": \([0-9]*\),*$/\1/p' BENCH_gen.json | head -1)
gen_fn=$(sed -n 's/^ *"oracle_fn_rate": \([0-9.]*\),*$/\1/p' BENCH_gen.json | head -1)
gen_match=$(sed -n 's/^ *"verdicts_match": \(true\|false\).*/\1/p' BENCH_gen.json | head -1)
if [ "$gen_target" != "true" ]; then
  echo "FAIL gate: generator throughput ${gen_per_sec:-?}/s < 500/s"
  gate_status=1
else
  echo "ok   gate: generator throughput ${gen_per_sec}/s >= 500/s"
fi
if [ -z "$gen_clean" ] || [ "$gen_clean" -ne 0 ]; then
  echo "FAIL gate: ${gen_clean:-?} clean-twin divergences (soundness)"
  gate_status=1
else
  echo "ok   gate: 0 clean-twin divergences"
fi
if [ -z "$gen_fn" ]; then
  echo "FAIL gate: oracle FN rate missing from BENCH_gen.json"
  gate_status=1
else
  echo "ok   gate: oracle FN rate reported ($gen_fn)"
fi
if [ "$gen_match" != "true" ]; then
  echo "FAIL gate: gen naive/session verdicts_match is ${gen_match:-missing}"
  gate_status=1
else
  echo "ok   gate: gen naive/session oracle verdicts match"
fi

exit $gate_status
