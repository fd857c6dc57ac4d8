#!/bin/sh
# Bench sections that write a BENCH_<section>.json record in the repo
# root: the cost of k implementations, Section 5 (overhead; its gate:
# a k = 2 campaign runs more execs/s than a k = 10 one),
# differential-oracle throughput (oracle), the linked-image
# executor against the reference interpreter (vm), observer and trace
# costs (trace), session caching (engine), the serve daemon under
# concurrent clients (serve), metamorphic twin analysis (metacheck) and
# the labeled-corpus generator (gen).
#
#   scripts/bench.sh            # the eight record sections
#   scripts/bench.sh all        # every bench section (tables + figures)
#
# bench/main.exe prints each section's rows and one "ok   gate:" or
# "FAIL gate:" line per floor the section declares (see bench/record.ml).
# Each section runs in its own process, so no section runs beside the
# pool domains or threads an earlier one left (oracle sets 4 jobs).
# This script exits 1 if any gate failed; a section whose optimized path
# disagrees with its naive reference aborts the run at once.

set -eu

cd "$(dirname "$0")/.."

echo "== dune build"
dune build

if [ "${1:-}" = "all" ]; then
  sections="table2 table3 figure1 table4 table5 table6 figure2 overhead oracle
    engine serve metacheck vm trace gen ablations"
else
  sections="overhead oracle vm trace engine serve metacheck gen"
fi
status=0
for section in $sections; do
  code=0
  ./_build/default/bench/main.exe "$section" || code=$?
  case $code in
    0) ;;
    1) status=1 ;;
    *) exit "$code" ;;
  esac
done
exit $status
