#!/bin/sh
# Bench sections that write a BENCH_<section>.json record in the repo
# root: differential-oracle throughput (oracle), the linked-image
# executor against the reference interpreter (vm), observer and trace
# costs (trace), session caching (engine), the serve daemon under
# concurrent clients (serve), metamorphic twin analysis (metacheck) and
# the labeled-corpus generator (gen).
#
#   scripts/bench.sh            # the seven record sections
#   scripts/bench.sh all        # every bench section (tables + figures)
#
# bench/main.exe prints each section's rows and one "ok   gate:" or
# "FAIL gate:" line per floor the section declares (see bench/record.ml);
# this script exits with its status: 1 if any gate failed.  A section
# whose optimized path disagrees with its naive reference aborts the run.

set -eu

cd "$(dirname "$0")/.."

echo "== dune build"
dune build

if [ "${1:-}" = "all" ]; then
  set --
else
  set -- oracle vm trace engine serve metacheck gen
fi
exec ./_build/default/bench/main.exe "$@"
